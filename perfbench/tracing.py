"""Span tracing from outside the package.

A traced pass replaces names that pathclique modules bound at import
(``oracle.has_path``, ``detect.canonical``, ``cli.main``, ...) with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans live in flat arrays in memory and are written out once,
when the benchmark ends.  Self times come from the spans.

To keep the cost per call low, a wrapper appends one packed integer at
the call's start (time, name id) and one at its end (time, info) to a flat
array; parents come from the nesting of the events when a run is closed.
The info byte carries what a counter needs from the call: the candidate's
order and whether the check rejected it.

Counters with an ``.nX`` suffix, ``.rejects`` and the oracle ratios count
only calls made while ``oracle.enumerate_graphs`` runs, i.e. candidates of
the isomorph-free generation; X is the candidate's vertex count.  Plain
``.calls`` and ``.s`` count every call through a wrapped binding.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

ORDERS = (7, 8, 9, 10)

# (module, attribute, span name, hook kind).  The span name is
# <defining module>.<function>; several bindings may share one name.
BINDINGS = (
    ("pathclique.oracle", "enumerate_graphs", "oracle.enumerate_graphs", "enumerate"),
    ("pathclique.oracle", "has_clique_in", "detect.has_clique_in", "clique_check"),
    ("pathclique.oracle", "has_path", "detect.has_path", "path_check"),
    ("pathclique.oracle", "Graph", "graphs.Graph", "graph"),
    ("pathclique.oracle", "canonical_with_generators", "canon.canonical_with_generators", "canon"),
    ("pathclique.oracle", "graph6_encode", "graph6.graph6_encode", "encode"),
    ("pathclique.oracle", "count_cliques", "detect.count_cliques", None),
    ("pathclique.oracle", "h_extremal", "constructions.build", None),
    ("pathclique.oracle", "h_minus", "constructions.build", None),
    ("pathclique.oracle", "double_star", "constructions.build", None),
    ("pathclique.oracle", "turan_union", "constructions.build", None),
    ("pathclique.oracle", "delta_k", "formulas.delta_k", None),
    ("pathclique.oracle", "h_value", "formulas.h_value", None),
    ("pathclique.oracle", "predicted_ex", "formulas.predicted_ex", None),
    ("pathclique.oracle", "threshold_case", "formulas.threshold_case", None),
    ("pathclique.detect", "has_path", "detect.has_path", "path_check"),
    ("pathclique.detect", "canonical", "canon.canonical", None),
    ("pathclique.detect", "is_free", "detect.is_free", None),
    ("pathclique.detect", "classify_structure", "detect.classify_structure", "classify"),
    ("pathclique.detect", "g1", "constructions.build", None),
    ("pathclique.detect", "g2", "constructions.build", None),
    ("pathclique.detect", "g3", "constructions.build", None),
    ("pathclique.detect", "g4", "constructions.build", None),
    ("pathclique.detect", "g5", "constructions.build", None),
    ("pathclique.detect", "delta_k", "formulas.delta_k", None),
    ("pathclique.cli", "main", "cli.main", None),
    ("pathclique.cli", "report_json", "reports.report_json", None),
    ("pathclique.cli", "count_cliques", "detect.count_cliques", None),
    ("pathclique.cli", "classify_structure", "detect.classify_structure", "classify"),
    ("pathclique.cli", "h_value", "formulas.h_value", None),
    ("pathclique.cli", "predicted_ex", "formulas.predicted_ex", None),
    ("pathclique.cli", "threshold_case", "formulas.threshold_case", None),
    # the public entry points the detector workload calls
    ("pathclique", "is_free", "detect.is_free", None),
    ("pathclique", "canonical", "canon.canonical", None),
    ("pathclique", "classify_structure", "detect.classify_structure", "classify"),
    ("pathclique", "count_cliques", "detect.count_cliques", None),
)

PASS_SPAN = "bench.pass"


def _per_order(base: str) -> list[str]:
    return [f"{base}.n{n}" for n in ORDERS]


def _layer_metric_names() -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for check in ("detect.has_clique_in", "detect.has_path"):
        out += [(f"{check}.calls", "count"), (f"{check}.s", "s"),
                (f"{check}.rejects", "count"), (f"{check}.reject_rate", "ratio")]
        out += [(name, "count") for name in _per_order(f"{check}.calls")]
        out += [(name, "count") for name in _per_order(f"{check}.rejects")]
        out += [(name, "s") for name in _per_order(f"{check}.s")]
    for stage in ("canon.canonical_with_generators", "graphs.Graph"):
        out += [(f"{stage}.calls", "count"), (f"{stage}.s", "s")]
        out += [(name, "count") for name in _per_order(f"{stage}.calls")]
        out += [(name, "s") for name in _per_order(f"{stage}.s")]
    out += [("graph6.graph6_encode.calls", "count"), ("graph6.graph6_encode.s", "s")]
    out += [("oracle.enumerate_graphs.calls", "count"), ("oracle.enumerate_graphs.s", "s"),
            ("oracle.self_s", "s"), ("oracle.level_graphs", "count")]
    out += [(name, "count") for name in _per_order("oracle.level_graphs")]
    out += [("oracle.dedup_ratio", "ratio"), ("oracle.filter_ratio", "ratio")]
    for name in ("canon.canonical", "detect.is_free", "detect.classify_structure",
                 "constructions.build", "detect.count_cliques", "formulas.delta_k",
                 "formulas.h_value", "formulas.predicted_ex", "formulas.threshold_case"):
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [("reports.report_json.s", "s"), ("cli.main.calls", "count"),
            ("cli.main.self_s", "s"), ("trace.spans", "count"),
            ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


LAYER_METRICS = _layer_metric_names()


class Tracer:
    """Records spans of the wrapped bindings while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._kinds: list[Optional[str]] = []
        self._name_ids: dict[str, int] = {}
        # begin: t << 8 | name id; end: ~(t << 8 | info), info 0 if the call
        # raised or has no attribute, else 1 + attribute.  t is in ns since
        # base, which keeps t << 8 within 63 bits for about 400 days.
        self.base = time.perf_counter_ns()
        self._events = array("q")
        self._configs: list[tuple] = []  # (forbid_path, forbid_clique, n) per enumeration
        self._returned: list[int] = []  # graphs returned per enumeration, in end order
        self._codes: list[str] = []  # graph6_encode results, in end order
        # closed spans of every run
        self.run_ids = array("B")
        self.name_ids = array("B")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str, kind: Optional[str]) -> int:
        if name not in self._name_ids:
            if len(self.names) == 256:
                raise ValueError("more than 256 span names")
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._kinds.append(kind)
        return self._name_ids[name]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name, kind in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _attribute(self, kind: Optional[str]) -> Optional[Callable]:
        """Info byte (>= 1) of a normal return, from args and result."""
        codes, returned = self._codes, self._returned
        if kind == "clique_check":
            # has_clique_in(parent, mask, m): the candidate has one more vertex
            return lambda args, result: 1 + ((args[0].n + 1) << 1 | bool(result))
        if kind == "path_check":
            return lambda args, result: 1 + (args[0].n << 1 | bool(result))
        if kind == "graph":
            return lambda args, result: 1 + (result.n << 1)
        if kind == "canon":
            return lambda args, result: 1 + (args[0].n << 1)
        if kind == "encode":
            return lambda args, result: codes.append(result) or 1 + (args[0].n << 1)
        if kind == "enumerate":
            return lambda args, result: returned.append(len(result)) or 1
        return None

    def _wrap(self, fn, name: str, kind: Optional[str]):
        nid = self._name_id(name, kind)
        ev = self._events.append
        clock, base = time.perf_counter_ns, self.base
        attribute = self._attribute(kind)
        configs = self._configs

        if attribute is None:
            def traced(*args, **kwargs):
                ev((clock() - base) << 8 | nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    ev(~((clock() - base) << 8))
        else:
            def traced(*args, **kwargs):
                if kind == "enumerate":
                    config = args[0]
                    configs.append((config.forbid_path, config.forbid_clique, config.n))
                ev((clock() - base) << 8 | nid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    ev(~((clock() - base) << 8))
                    raise
                t = clock() - base
                ev(~(t << 8 | attribute(args, result)))
                return result

        traced.__wrapped__ = fn
        return traced

    def _clock(self) -> int:
        return time.perf_counter_ns() - self.base

    # -- runs ----------------------------------------------------------------

    def begin_run(self) -> None:
        """Open the root span of a run."""
        self._events.append(self._clock() << 8 | self._name_id(PASS_SPAN, None))

    def end_run(self, run_id: int) -> dict:
        """Close the root span, turn the run's events into spans and
        return the run's layer metrics."""
        self._events.append(~(self._clock() << 8))
        first = len(self.starts)
        counters = self._close(run_id)
        # the wrappers hold bound methods of these containers: empty in place
        del self._events[:]
        for pending in (self._configs, self._returned, self._codes):
            pending.clear()
        return self._run_metrics(first, counters)

    def _close(self, run_id: int) -> dict:
        """Append the run's spans; count enumeration candidates by order."""
        kinds, names = self._kinds, self.names
        run_ids, name_ids, parents = self.run_ids, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        configs, returned, codes = iter(self._configs), iter(self._returned), iter(self._codes)
        order_calls: Counter = Counter()
        order_rejects: Counter = Counter()
        order_ns: Counter = Counter()
        level_codes: dict[tuple, set] = defaultdict(set)
        filtered: list[tuple] = []
        stack: list[int] = []
        enum_stack: list[tuple] = []
        classify_depth = 0
        for word in self._events:
            if word >= 0:
                nid = word & 0xFF
                sid = len(starts)
                run_ids.append(run_id)
                name_ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                starts.append(word >> 8)
                ends.append(0)
                stack.append(sid)
                kind = kinds[nid]
                if kind == "enumerate":
                    enum_stack.append(next(configs))
                elif kind == "classify":
                    classify_depth += 1
                continue
            word = ~word
            info = word & 0xFF
            sid = stack.pop()
            t = ends[sid] = word >> 8
            kind = kinds[name_ids[sid]]
            if kind == "classify":
                classify_depth -= 1
            elif kind == "enumerate":
                config = enum_stack.pop()
                if info:
                    kept = next(returned)
                    if not classify_depth:
                        filtered.append((config, kept))
            elif info:
                value = info - 1
                order = value >> 1
                if kind == "encode":
                    code = next(codes)
                if enum_stack:
                    key = (names[name_ids[sid]], order)
                    order_calls[key] += 1
                    order_ns[key] += t - starts[sid]
                    if value & 1:
                        order_rejects[key] += 1
                    if kind == "encode" and order >= 1:
                        level_codes[(enum_stack[-1][:2], order)].add(code)
        return {"calls": order_calls, "rejects": order_rejects, "ns": order_ns,
                "level_codes": level_codes, "filtered": filtered}

    def _run_metrics(self, first: int, counters: dict) -> dict:
        names = self.names
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        child_ns: dict[int, int] = defaultdict(int)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        # spans are appended at call start, so children follow parents
        for sid in range(len(starts) - 1, first - 1, -1):
            dur = ends[sid] - starts[sid]
            name = names[name_ids[sid]]
            calls[name] += 1
            total_ns[name] += dur
            self_ns[name] += dur - child_ns.pop(sid, 0)
            parent = parents[sid]
            if parent >= 0:
                child_ns[parent] += dur

        metrics: dict[str, float] = {}
        for name in calls:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total_ns[name] / 1e9
        metrics["oracle.self_s"] = self_ns["oracle.enumerate_graphs"] / 1e9
        metrics["cli.main.self_s"] = self_ns["cli.main"] / 1e9
        metrics["trace.spans"] = len(starts) - first

        order_calls, order_rejects = counters["calls"], counters["rejects"]
        for check in ("detect.has_clique_in", "detect.has_path"):
            tried = sum(c for (name, _), c in order_calls.items() if name == check)
            rejected = sum(c for (name, _), c in order_rejects.items() if name == check)
            metrics[f"{check}.rejects"] = rejected
            metrics[f"{check}.reject_rate"] = rejected / tried if tried else 0.0
            for n in ORDERS:
                metrics[f"{check}.rejects.n{n}"] = order_rejects[(check, n)]
        for (name, order), n_calls in order_calls.items():
            if order in ORDERS:
                metrics[f"{name}.calls.n{order}"] = n_calls
                metrics[f"{name}.s.n{order}"] = counters["ns"][(name, order)] / 1e9

        level_codes = counters["level_codes"]
        sizes: Counter = Counter()
        for (_key, order), codes in level_codes.items():
            sizes[order] += len(codes)
        distinct = sum(sizes.values())
        metrics["oracle.level_graphs"] = distinct
        for n in ORDERS:
            metrics[f"oracle.level_graphs.n{n}"] = sizes[n]
        canon_calls = sum(c for (name, _), c in order_calls.items()
                          if name == "canon.canonical_with_generators")
        metrics["oracle.dedup_ratio"] = distinct / canon_calls if canon_calls else 0.0
        filtered = counters["filtered"]
        kept = sum(k for _, k in filtered)
        level = sum(len(level_codes.get((config[:2], config[2]), ())) for config, _ in filtered)
        metrics["oracle.filter_ratio"] = kept / level if level else 0.0
        return metrics

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Header line (JSON) followed by the raw span arrays."""
        columns = (("run", self.run_ids), ("name", self.name_ids), ("parent", self.parents),
                   ("start_ns", self.starts), ("end_ns", self.ends))
        header = {
            "names": self.names,
            "count": len(self.starts),
            "base_perf_counter_ns": self.base,
            "byteorder": sys.byteorder,
            "fields": [[field, arr.typecode, arr.itemsize] for field, arr in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for _field, arr in columns:
                arr.tofile(fh)


def load_spans(path) -> list[tuple[int, str, int, int, int]]:
    """Read a file from Tracer.write_spans as (run, name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError("span file written on a machine of other byte order")
        cols = []
        for _field, code, itemsize in header["fields"]:
            arr = array(code)
            if arr.itemsize != itemsize:
                raise ValueError(f"span column {_field} has item size {itemsize}")
            arr.fromfile(fh, header["count"])
            cols.append(arr)
    names = header["names"]
    return [(run, names[nid], parent, start, end)
            for run, nid, parent, start, end in zip(*cols)]
