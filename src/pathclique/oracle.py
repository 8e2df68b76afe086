"""Ground truth by exhaustive search.

Isomorph-free enumeration of {P_k, K_m}-free graphs by vertex-incremental
extension: a graph on i+1 vertices always arises by attaching a new vertex
to some graph on i vertices, and both freeness conditions are closed under
vertex deletion, so pruned parents never lose descendants.  Duplicates are
removed with canonical codes, and attachment subsets are reduced to orbit
representatives under the parent's known automorphisms.

Enumeration levels are cached per (forbid_path, forbid_clique) pair; the
cache doubles as a checkpoint since a timed-out sweep resumes from the
last completed level.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .canon import canonical_with_generators
from .constructions import double_star, h_extremal, h_minus, turan_union
from .detect import (
    blocks,
    count_cliques,
    has_clique_in,
    has_path,
    is_2connected,
    is_connected,
    is_free,
)
from .formulas import (
    ParameterError,
    TheoremParams,
    delta_k,
    h_value,
    predicted_ex,
    threshold_case,
)
from .graph6 import graph6_encode
from .graphs import Graph, induced
from .reports import VerificationRow, sort_rows

HARD_CAP = 10
UNCONSTRAINED_CAP = 8
CAP_ENV_VAR = "PATHCLIQUE_ENUM_CAP"


class CapExceeded(Exception):
    """Requested order exceeds the enumeration vertex cap."""


class BudgetExceeded(Exception):
    """Time budget ran out; partial statistics are attached."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


def enumeration_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return HARD_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if value < 0:
        raise ParameterError(f"{CAP_ENV_VAR} must be nonnegative")
    return min(value, HARD_CAP)


@dataclass(frozen=True)
class EnumerationConfig:
    """What to enumerate: order, forbidden subgraphs, final filters.

    forbid_path / forbid_clique of None mean unconstrained; fully
    unconstrained runs are capped harder because the class explodes.
    connected_only, min_degree and edge_maximal are applied only to the
    finished level (they are not closed under vertex deletion).
    """

    n: int
    forbid_path: Optional[int] = None
    forbid_clique: Optional[int] = None
    connected_only: bool = False
    min_degree: int = 0
    edge_maximal: bool = False
    time_budget_s: Optional[float] = None
    progress: Optional[Callable[[int, int], None]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("n must be nonnegative")
        cap = enumeration_cap()
        if self.forbid_path is None and self.forbid_clique is None:
            cap = min(cap, UNCONSTRAINED_CAP)
        if self.n > cap:
            raise CapExceeded(f"n={self.n} exceeds enumeration cap {cap}")


# level i holds (canonical graph, automorphism generators, graph6 code)
_LEVEL_CACHE: dict[tuple, list[list[tuple[Graph, tuple, str]]]] = {}


def clear_cache() -> None:
    _LEVEL_CACHE.clear()


def _subset_orbit_reps(i: int, gens: tuple) -> list[int]:
    """Minimal representative of each orbit of vertex subsets of 0..i-1
    under the group generated by gens."""
    total = 1 << i
    if not gens:
        return list(range(total))
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in gens:
        for mask in range(total):
            img = 0
            m = mask
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                img |= 1 << a[u]
            ra, rb = find(mask), find(img)
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
    return [mask for mask in range(total) if find(mask) == mask]


def _extend(
    levels: list[list[tuple[Graph, tuple, str]]],
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    deadline: Optional[float],
) -> list[tuple[Graph, tuple, str]]:
    """The next level after levels[-1]; the deadline is checked once per
    parent, so a budget overruns by at most one parent's extensions."""
    i = len(levels) - 1
    out: dict[str, tuple[Graph, tuple, str]] = {}
    for g, gens, _code in levels[i]:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                f"time budget exhausted after level {i}",
                {"completed_levels": i, "level_sizes": [len(l) for l in levels]},
            )
        for mask in _subset_orbit_reps(i, gens):
            # a new K_m would have to use the new vertex
            if forbid_clique is not None and has_clique_in(
                g, mask, forbid_clique - 1
            ):
                continue
            rows = [r | (1 << i) if (mask >> u) & 1 else r for u, r in enumerate(g.rows)]
            rows.append(mask)
            cand = Graph(i + 1, tuple(rows))
            if forbid_path is not None and has_path(cand, forbid_path):
                continue
            cf, cgens = canonical_with_generators(cand)
            code = graph6_encode(cf)
            if code not in out:
                out[code] = (cf, tuple(cgens), code)
    return [out[c] for c in sorted(out)]


def _levels(
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    n: int,
    deadline: Optional[float] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> list[list[tuple[Graph, tuple, str]]]:
    key = (forbid_path, forbid_clique)
    g0 = Graph(0, ())
    levels = _LEVEL_CACHE.setdefault(key, [[(g0, (), graph6_encode(g0))]])
    while len(levels) <= n:
        # only whole levels are cached: _extend raises before appending
        levels.append(_extend(levels, forbid_path, forbid_clique, deadline))
        if progress is not None:
            progress(len(levels) - 1, len(levels[-1]))
    return levels


def _edge_maximal(g: Graph, k: Optional[int], m: Optional[int]) -> bool:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            rows = list(g.rows)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            bigger = Graph(g.n, tuple(rows))
            ok = True
            if m is not None and has_clique_in(bigger, bigger.vertex_mask(), m):
                ok = False
            if ok and k is not None and has_path(bigger, k):
                ok = False
            if ok:
                return False
    return True


def enumerate_graphs(config: EnumerationConfig) -> list[Graph]:
    """All graphs of the configured class on config.n vertices, one per
    isomorphism class, in canonical labels, sorted by canonical code."""
    deadline = None
    if config.time_budget_s is not None:
        deadline = time.monotonic() + config.time_budget_s
    levels = _levels(
        config.forbid_path, config.forbid_clique, config.n, deadline, config.progress
    )
    out = []
    for g, _gens, _code in levels[config.n]:
        if config.connected_only and not is_connected(g):
            continue
        if config.min_degree and g.min_degree() < config.min_degree:
            continue
        if config.edge_maximal and not _edge_maximal(
            g, config.forbid_path, config.forbid_clique
        ):
            continue
        out.append(g)
    return out


@dataclass(frozen=True)
class ExtremalResult:
    """Exact maximum K_r count with every extremal class captured."""

    n: int
    r: int
    value: int
    extremal: tuple[str, ...]
    witness: str
    stats: dict


def ex_oracle(
    n: int,
    k: Optional[int],
    m: Optional[int],
    r: int,
    connected: bool = False,
    edge_maximal_only: bool = False,
    time_budget_s: Optional[float] = None,
) -> ExtremalResult:
    """Exact ex(n, K_r, {P_k, K_m}) (or the connected variant) by search.

    Either forbidden subgraph may be None for the single-constraint
    problems (clique-only, path-only).  With edge_maximal_only the
    maximum is still exact because adding an edge never decreases N_r,
    but the extremal list then omits non-maximal extremal graphs.
    """
    if r < 2:
        raise ParameterError("r must be at least 2")
    config = EnumerationConfig(
        n=n,
        forbid_path=k,
        forbid_clique=m,
        connected_only=connected,
        edge_maximal=edge_maximal_only,
        time_budget_s=time_budget_s,
    )
    graphs = enumerate_graphs(config)
    if not graphs:
        raise ParameterError(f"no graphs in the class at n={n}")
    best = -1
    extremal: list[str] = []
    for g in graphs:
        value = count_cliques(g, r)
        if value > best:
            best = value
            extremal = [graph6_encode(g)]
        elif value == best:
            extremal.append(graph6_encode(g))
    extremal.sort()
    return ExtremalResult(
        n=n,
        r=r,
        value=best,
        extremal=tuple(extremal),
        witness=extremal[0],
        stats={"searched": len(graphs), "extremal": len(extremal)},
    )


@dataclass(frozen=True)
class DisintegrationTrace:
    """Deletion sequence (original labels) and surviving core."""

    deleted: tuple[int, ...]
    core: Graph
    core_size: int
    stuck: bool


def disintegrate(
    g: Graph, delta: int, preserve_connectivity: bool = False
) -> DisintegrationTrace:
    """Iterated deletion of vertices of degree < delta; the core is the
    delta-core.  Ties break to the lowest original label.

    In connectivity-preserving mode, when the current graph has cut
    vertices only non-cut vertices lying in end blocks may go; if low
    degree vertices remain but none is deletable the trace is stuck.
    """
    alive = list(range(g.n))
    deleted: list[int] = []
    stuck = False
    while alive:
        sub = induced(g, alive)
        low = [i for i, v in enumerate(alive) if sub.degree(i) < delta]
        if not low:
            break
        if preserve_connectivity:
            dec = blocks(sub)
            if dec.cut_vertices:
                allowed = set()
                for bi in dec.end_blocks:
                    allowed |= dec.blocks[bi] - dec.cut_vertices
                low = [i for i in low if i in allowed]
                if not low:
                    stuck = True
                    break
        victim = low[0]
        deleted.append(alive[victim])
        del alive[victim]
    return DisintegrationTrace(
        deleted=tuple(deleted),
        core=induced(g, alive),
        core_size=len(alive),
        stuck=stuck,
    )


def valid_attach_vertices(block: Graph, dk: int) -> list[int]:
    """Vertices of the block usable as the identified center: every other
    vertex keeps degree >= dk inside the block."""
    degs = block.degrees()
    return [
        v
        for v in range(block.n)
        if all(degs[u] >= dk for u in range(block.n) if u != v)
    ]


def g3_block_family(k: int, m: int) -> list[Graph]:
    """All blocks usable in the block-substitution construction: the
    2-connected K_m-free graphs on delta_k + 2 vertices admitting an
    attach vertex that keeps the composite's min degree >= delta_k.
    One graph per isomorphism class, sorted by canonical code."""
    if k % 2 == 0:
        raise ParameterError("block substitution needs odd k")
    if k < 5 or m < 3:
        raise ParameterError("need k >= 5 and m >= 3")
    dk = delta_k(k)
    order = dk + 2
    config = EnumerationConfig(n=order, forbid_clique=m)
    out = []
    for g in enumerate_graphs(config):
        if not is_2connected(g):
            continue
        if not valid_attach_vertices(g, dk):
            continue
        out.append(g)
    return out


def _predicted_family(
    n: int, k: int, m: int, r: int, scope: str, case_tag: str, predicted: int
) -> set[str]:
    """Canonical codes of theorem extremal candidates valid at this n,
    filtered to those actually attaining the predicted count."""

    def code_if_attains(g: Graph) -> Optional[str]:
        if count_cliques(g, r) != predicted:
            return None
        cf, _ = canonical_with_generators(g)
        return graph6_encode(cf)

    fam: set[str] = set()
    candidates: list[Graph] = []
    dk = delta_k(k)
    if scope == "connected" or case_tag == "Case1":
        if n >= dk + 2:
            candidates.append(h_extremal(n, m, k))
        if k % 2 == 1 and m - 2 <= dk <= 2 * m - 5 and n >= dk + 4:
            candidates.append(h_minus(n, m, k))
        if (k, m, r) == (5, 3, 2):
            candidates += [double_star(a, n - a) for a in range(2, n // 2 + 1)]
    if scope == "all" and case_tag == "Case2" and n % (k - 1) == 0:
        candidates.append(turan_union(n, k, m))
    for g in candidates:
        code = code_if_attains(g)
        if code is not None:
            fam.add(code)
    return fam


def _match_tag(oracle_set: set[str], predicted_set: set[str]) -> str:
    if oracle_set == predicted_set:
        return "exact"
    if predicted_set < oracle_set:
        return "superset"
    if oracle_set < predicted_set:
        return "subset"
    return "disjoint"


def verify_theorem(
    params: TheoremParams,
    n_range: range,
    scope: str = "connected",
    time_budget_s: Optional[float] = None,
) -> list[VerificationRow]:
    """Oracle-versus-formula sweep over n_range for one (k, m, r).

    ORACLE_GREATER rows are legal data: the formulas are asymptotic and
    small n may beat them.  MISMATCH (oracle strictly below a value that
    should be exact) is the failure state.
    """
    if scope not in ("connected", "all"):
        raise ParameterError("scope must be 'connected' or 'all'")
    k, m, r = params.k, params.m, params.r
    case = threshold_case(k, m, r)
    rows = []
    for n in n_range:
        if n < params.delta + 2:
            raise ParameterError(f"need n >= delta_k + 2 = {params.delta + 2}")
        t0 = time.monotonic()
        if scope == "connected":
            predicted, exact = h_value(n, m, k, r), True
        else:
            predicted, exact = predicted_ex(n, k, m, r)
        result = ex_oracle(
            n, k, m, r, connected=(scope == "connected"),
            time_budget_s=time_budget_s,
        )
        if result.value == predicted:
            status = "EQUAL"
        elif result.value > predicted:
            status = "ORACLE_GREATER"
        elif not exact:
            status = "BOUND_RESPECTED"
        else:
            status = "MISMATCH"
        family = _predicted_family(n, k, m, r, scope, case.tag, predicted)
        match = _match_tag(set(result.extremal), family)
        rows.append(
            VerificationRow(
                k=k,
                m=m,
                r=r,
                n=n,
                scope=scope,
                case_tag=case.tag,
                oracle_value=result.value,
                predicted_value=predicted,
                status=status,
                extremal_match=match,
                runtime_ms=(time.monotonic() - t0) * 1000.0,
                witnesses=result.extremal,
            )
        )
    return sort_rows(rows)


def verify_classification(
    k: int,
    m: int,
    n_range: range,
    time_budget_s: Optional[float] = None,
) -> dict:
    """Run the structural classifier over every enumerated valid input.

    Valid inputs are the connected {P_k, K_m}-free graphs on n >= k
    vertices with min degree >= delta_k.  Any Unclassified graph is a
    counterexample and is reported by code.
    """
    from .detect import classify_structure

    TheoremParams(k, m, 2)
    dk = delta_k(k)
    histogram: dict[str, int] = {}
    unclassified: list[str] = []
    total = 0
    for n in n_range:
        if n < k:
            continue
        config = EnumerationConfig(
            n=n,
            forbid_path=k,
            forbid_clique=m,
            connected_only=True,
            min_degree=dk,
            time_budget_s=time_budget_s,
        )
        for g in enumerate_graphs(config):
            total += 1
            outcome = classify_structure(g, k, m)
            tag = outcome.class_tag.value
            histogram[tag] = histogram.get(tag, 0) + 1
            if tag == "Unclassified":
                unclassified.append(graph6_encode(g))
    return {
        "k": k,
        "m": m,
        "n_range": [n_range.start, n_range.stop - 1],
        "total": total,
        "histogram": dict(sorted(histogram.items())),
        "unclassified": sorted(unclassified),
        "ok": not unclassified,
    }
