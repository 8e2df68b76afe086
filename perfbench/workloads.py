"""The benchmark's workloads: inputs, one pass, and the output checks.

Every workload calls public entry points of pathclique by attribute
lookup at call time (``pathclique.cli.main``, ``pathclique.is_free``,
...), so a traced pass sees the same calls through its wrappers.  Each
pass of a sweep starts from a cold level cache, because every CLI user
pays for enumeration.

An operation is one CLI call or one kernel check.  A pass returns one
outcome per operation and a digest per output group; ``check`` marks an
operation failed when it raised, when an independent check fails, or when
its group digest differs from the one recorded at the seed commit in
``reference.json``.

Sizes: ``full`` runs the sweeps to order 10 and is what a traced run
uses; ``timed`` stops the sweeps at order 9, so that a timed run holds
several passes, and is the full kernel set; ``small`` stops at order 8
and is for the self-check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import pathclique
import pathclique.cli
import pathclique.oracle

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class PassResult:
    # (op id, digest key or None, error or None), in run order
    outcomes: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, err in self.outcomes if err is not None)

    def errors(self) -> list[str]:
        return [f"{op}: {err}" for op, _, err in self.outcomes if err is not None]


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(obj):
    """JSON-able, order-independent form of a classification witness."""
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items())}
    if isinstance(obj, bytes):
        return obj.decode("ascii")
    return obj


def check(workload: str, size: str, result: PassResult) -> PassResult:
    """Mark operations whose group digest differs from the reference."""
    reference = json.loads(REFERENCE_PATH.read_text())[size][workload]
    marked = []
    for op, key, err in result.outcomes:
        if err is None and key in reference and result.digests.get(key) != reference[key]:
            err = f"digest of {key} differs from the reference"
        marked.append((op, key, err))
    result.outcomes = marked
    return result


# -- CLI sweeps --------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pathclique.cli.main(list(argv))
    return rc, buf.getvalue()


def _sweep_pass(ops: list[tuple[str, list[str]]], verify_output) -> PassResult:
    pathclique.oracle.clear_cache()
    result = PassResult()
    outputs = {}
    for op, argv in ops:
        try:
            rc, out = _run_cli(argv)
            if argv[0] == "verify":
                # meta holds timings; only data is deterministic
                out = json.dumps(json.loads(out)["data"], sort_keys=True)
        except Exception as exc:  # a raised call or unreadable report fails the operation
            result.outcomes.append((op, op, f"raised {exc!r}"))
            continue
        outputs[op] = out
        result.digests[op] = _sha(out)
        result.outcomes.append((op, op, None if rc == 0 else f"exit code {rc}"))
    errors = verify_output(outputs)
    result.outcomes = [(op, key, err or errors.get(op)) for op, key, err in result.outcomes]
    return result


def _h_edges_k7_m4(n: int) -> int:
    # H_n(4, 7) = K_2 joined to n - 2 independent vertices
    return 1 + 2 * (n - 2)


class ExtremalSweep:
    """verify (connected, r=2), verify (all, r=3) and the oracle cell for
    (k, m) = (7, 4), in one process: calls 2 and 3 reuse the level cache."""

    name = "extremal_sweep"
    TOP = {"full": 10, "timed": 9, "small": 8}

    def build(self, seed: int, size: str):
        top = self.TOP[size]
        span = f"7..{top}"
        return top, [
            ("verify_r2_connected",
             ["verify", "--k", "7", "--m", "4", "--r", "2", "--n", span, "--connected"]),
            ("verify_r3_all",
             ["verify", "--k", "7", "--m", "4", "--r", "3", "--n", span, "--scope", "all"]),
            (f"oracle_n{top}",
             ["oracle", "--n", str(top), "--k", "7", "--m", "4", "--r", "2"]),
        ]

    def run_pass(self, inputs) -> PassResult:
        top, ops = inputs

        def verify_output(outputs):
            rows = json.loads(outputs.get("verify_r2_connected", "[]"))
            got = {row["n"]: row["oracle_value"] for row in rows}
            want = {n: _h_edges_k7_m4(n) for n in range(7, top + 1)}
            if got != want:
                return {"verify_r2_connected": f"connected rows {got}, expected {want}"}
            return {}

        return _sweep_pass(ops, verify_output)


class ClassifySweep:
    """classify --exhaustive for (k, m) = (7, 4), one order per call."""

    name = "classify_sweep"
    ORDERS = {"full": (7, 8, 9, 10), "timed": (7, 8, 9), "small": (7, 8)}
    # connected {P_7, K_4}-free graphs with min degree >= 2 on these orders
    TOTAL = {"full": 51, "timed": 35, "small": 23}

    def build(self, seed: int, size: str):
        ops = [(f"classify_n{n}",
                ["classify", "--exhaustive", "--k", "7", "--m", "4", "--n", str(n)])
               for n in self.ORDERS[size]]
        return self.TOTAL[size], ops

    def run_pass(self, inputs) -> PassResult:
        expected_total, ops = inputs

        def verify_output(outputs):
            total, bad = 0, []
            for text in outputs.values():
                for line in text.splitlines():
                    tag, _, value = line.partition(" ")
                    if tag == "total":
                        total += int(value)
                    elif tag.lower() == "unclassified":
                        bad.append(value)
            if total == expected_total and not bad:
                return {}
            err = f"total {total} (expected {expected_total}), unclassified {bad}"
            return {op: err for op, _ in ops}

        return _sweep_pass(ops, verify_output)


# -- detector kernels ----------------------------------------------------------


def _delta(k: int) -> int:
    return k // 2 - 1


def _relabel(g, perm):
    rows = [0] * g.n
    for u in range(g.n):
        row, mask = 0, g.rows[u]
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            row |= 1 << perm[v]
        rows[perm[u]] = row
    return pathclique.Graph(g.n, tuple(rows))


def _turan_cliques(n: int, p: int, r: int) -> int:
    """N_r(T(n, p)) as the elementary symmetric polynomial of part sizes."""
    parts = [n // p + (1 if i < n % p else 0) for i in range(min(p, n))]
    coeffs = [1] + [0] * r
    for size in parts:
        for i in range(r, 0, -1):
            coeffs[i] += size * coeffs[i - 1]
    return coeffs[r]


class DetectorKernels:
    """Path search, canonical labelling, classification and clique counts
    on constructed graphs 2-3 times larger than enumeration candidates."""

    name = "detector_kernels"
    # (largest k in group a, largest n in a, b, c, d, random graphs in b)
    LIMITS = {"full": (10, 20, 30, 16, 30, 1000), "small": (8, 14, 16, 10, 16, 100)}
    LIMITS["timed"] = LIMITS["full"]

    def build(self, seed: int, size: str):
        top_k, top_a, top_b, top_c, top_d, n_random = self.LIMITS[size]
        rng = random.Random(seed)

        # (a) H_n has no P_k: every path search runs to the end
        free = [(f"a:{k},{m},{n}", "a", _check_free, (pathclique.h_extremal(n, m, k), k, m))
                for k in range(4, top_k + 1) for m in range(3, k)
                for n in range(_delta(k) + 2, top_a + 1)]

        # (b) canonical codes of structured graphs and of random small ones
        structured = []
        for n in range(10, top_b + 1, 2):
            for k, m in ((7, 4), (8, 5), (10, 4), (9, 6)):
                structured.append((f"h{n},{m},{k}", pathclique.h_extremal(n, m, k)))
            for p in (2, 3, 5):
                structured.append((f"t{n},{p}", pathclique.turan(n, p)))
            structured.append((f"ds{n}", pathclique.double_star(n // 2, n - n // 2)))
            if n % 6 == 0:
                structured.append((f"tu{n}", pathclique.turan_union(n, 7, 4)))
        randoms = []
        for i in range(n_random):
            n = rng.randint(5, 9)
            p = rng.choice((0.3, 0.5, 0.7))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            randoms.append((f"r{i}", pathclique.make_graph(n, edges)))
        canon = []
        for key, group in (("b", structured), ("b_random", randoms)):
            for name, g in group:
                perm = list(range(g.n))
                rng.shuffle(perm)
                canon.append((f"{key}:{name}", key, _check_canonical, (g, _relabel(g, perm))))

        # (c) classification of constructed family members
        members = []
        for n in range(7, top_c + 1):
            for k, m in ((7, 4), (7, 5), (8, 4), (9, 5), (10, 6)):
                if n >= k:
                    members.append((f"c:h{n},{k},{m}", pathclique.h_extremal(n, m, k), k, m,
                                    "Class1"))
            for k in (7, 9):
                if n >= k and (n - 1) % _delta(k) == 0:
                    members.append((f"c:g1{n},{k}", pathclique.g1(n, k), k, _delta(k) + 2, None))
            for n1 in range(3, n - 2, 2):
                n2 = n + 1 - n1
                if n2 >= 4:
                    members.append((f"c:g4{n1},{n2}", pathclique.g4(n1, n2), 7, 4, None))
                    members.append((f"c:g5{n1},{n2}", pathclique.g5(n1, n2), 7, 4, None))
        members = [(op, "c", _check_class, args) for op, *args in members]

        # (d) clique counts of Turan graphs against the closed form
        counts = [(f"d:{n},{p},{r}", "d", _check_count,
                   (pathclique.turan(n, p), r, _turan_cliques(n, p, r)))
                  for n in range(10, top_d + 1) for p in range(2, 7) for r in range(2, 6)]

        for group in (free, canon, members, counts):
            rng.shuffle(group)
        return free + canon + members + counts

    def run_pass(self, checks) -> PassResult:
        result = PassResult()
        records: dict[str, list] = {"a": [], "b": [], "b_random": [], "c": [], "d": []}
        for op, key, check, args in checks:
            try:
                value, err = check(*args)
            except Exception as exc:  # a raised check is a failed operation
                value, err = None, f"raised {exc!r}"
            records[key].append((op, value))
            result.outcomes.append((op, key, err))
        result.digests = {key: _sha(sorted(rows)) for key, rows in records.items()}
        return result


# Each check returns (value for the digest, error or None).  The entry
# points are looked up at call time so that a traced pass sees the calls.


def _check_free(g, k, m):
    ok = pathclique.is_free(g, k, m)
    return ok, None if ok else "H_n reported not free"


def _check_canonical(g, h):
    code = pathclique.canonical(g)
    if pathclique.canonical(h) != code:
        return None, "canonical code changed under relabelling"
    return code.decode("ascii"), None


def _check_class(g, k, m, expected):
    outcome = pathclique.classify_structure(g, k, m)
    tag = outcome.class_tag.value
    if tag == "Unclassified" or (expected and tag != expected):
        return None, f"classified {tag}"
    return [tag, _plain(outcome.witness)], None


def _check_count(g, r, expected):
    value = pathclique.count_cliques(g, r)
    return value, None if value == expected else f"{value} != {expected}"


WORKLOADS = {w.name: w for w in (ExtremalSweep(), ClassifySweep(), DetectorKernels())}
