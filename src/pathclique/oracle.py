"""Ground truth by exhaustive search.

Isomorph-free enumeration of {P_k, K_m}-free graphs by vertex-incremental
extension: a graph on i+1 vertices always arises by attaching a new vertex
to some graph on i vertices, and both freeness conditions are closed under
vertex deletion, so pruned parents never lose descendants.  Duplicates are
removed with canonical codes.

The new vertex's neighbourhood (its attachment mask) is decided before any
candidate graph is built.  The parent is free, so a new P_k or K_m must
use the new vertex: the mask is rejected iff it spans a K_{m-1}, or holds
one vertex or two vertices whose attachment alone creates a P_k.  Both
are decided in the parent itself, from the vertex sets of the paths that
start at each vertex: a parent on i vertices costs i rooted path
searches, one comparison of path sets per pair of good vertices, and one
pass over its 2^i masks.  The argument is in _attachable_masks.  Of the
surviving masks, only those that give the new vertex maximum degree in
the child are kept, since every graph in the class arises by attaching a
vertex of maximum degree (see _extend); only their orbit representatives
under the parent's automorphisms are built and labelled canonically.

The edge_maximal filter is decided in each finished graph the same way,
by rooted path and clique searches in it (see _edge_maximal).

Enumeration levels are cached per (forbid_path, forbid_clique) pair; the
cache doubles as a checkpoint since a timed-out sweep resumes from the
last completed level.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .canon import canonical, canonical_with_generators
from .constructions import double_star, h_extremal, h_minus, turan_union
from .detect import (
    blocks,
    class_table,
    count_cliques,
    has_clique_in,
    has_path,  # no caller here; bound for the perfbench tracer (test_tracing)
    is_2connected,
    is_connected,
    rooted_path_sets,
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
    finished level (they are not closed under vertex deletion);
    edge_maximal is decided in each graph without building g + e.
    """

    n: int
    forbid_path: Optional[int] = None
    forbid_clique: Optional[int] = None
    connected_only: bool = False
    min_degree: int = 0
    edge_maximal: bool = False
    time_budget_s: Optional[float] = None

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
    """Empty the level cache and the classifier's table of candidates."""
    _LEVEL_CACHE.clear()
    class_table.cache_clear()


def _subset_orbits(masks: list[int], gens: tuple) -> list[list[int]]:
    """The orbits of the vertex subsets in masks under the group generated
    by gens, each led by its minimum.  masks must be ascending and closed
    under gens, so the first mask met of each orbit is its minimum."""
    if not gens:
        return [[mask] for mask in masks]
    seen: set[int] = set()
    orbits = []
    for mask in masks:
        if mask in seen:
            continue
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for a in gens:
                img = 0
                m = x
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    img |= 1 << a[u]
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
        orbits.append(orbit)
    return orbits


def _attach(g: Graph, mask: int) -> Graph:
    """g plus a new vertex g.n adjacent to the vertices of mask."""
    bit = 1 << g.n
    rows = [r | bit if (mask >> u) & 1 else r for u, r in enumerate(g.rows)]
    rows.append(mask)
    return Graph(g.n + 1, tuple(rows))


def _paths_clash(su: list[dict[int, int]], sw: list[dict[int, int]], k: int) -> bool:
    """True iff a path set of su and one of sw (rooted_path_sets levels,
    indexed by size - 1) are disjoint and have k - 1 vertices together.
    Only the sizes that add up to k - 1 are compared."""
    if len(su) + len(sw) < k - 1:
        return False
    for a, sets in enumerate(su, 1):
        b = k - 1 - a
        if 1 <= b <= len(sw):
            others = sw[b - 1]
            if any(not s & t for s in sets for t in others):
                return True
    return False


def _attachable_masks(
    g: Graph, forbid_path: Optional[int], forbid_clique: Optional[int]
) -> list[int]:
    """Every mask M, ascending, for which g + v(M) is {P_k, K_m}-free,
    where g is {P_k, K_m}-free and v is a new vertex with neighbourhood M.

    Soundness.  Any P_k or K_m in g + v(M) contains v, because g has none.
    - K_m: its other m - 1 vertices are a K_{m-1} inside M, so g + v(M)
      is K_m-free iff M spans no K_{m-1}.
    - P_k with k >= 2: v has one or two neighbours on the path, a set
      S ⊆ M with 1 <= |S| <= 2, and the path lies in g + v(S).  As
      g + v(S) is a subgraph of g + v(M) for every S ⊆ M, g + v(M) is
      P_k-free iff no vertex u of M is bad (g + v({u}) has a P_k) and no
      two vertices of M clash (g + v({u, w}) has a P_k).
    - Both are decided by searches rooted in g (detect.rooted_path_sets),
      never on a built child.  u is bad iff g has a path on k - 1
      vertices that starts at u: a P_k in g + v({u}) has v at one end,
      next to u.  Good u and w clash iff g has disjoint paths from u and
      from w with k - 1 vertices in total: a P_k in g + v({u, w}) with v
      at one end would use one of u, w alone and make it bad, so v is
      inner, and the path is one path from u, then v, then one from w.
      Every prefix of a path from u is a path from u, so a pair with at
      least k - 1 vertices in total can be cut to exactly k - 1; only
      sizes a + b = k - 1 are compared (_paths_clash), and a pair whose
      longest paths from u and from w have fewer than k - 1 vertices
      together is skipped.
    - Edge cases.  For k <= 1 or m <= 1, v alone (or the empty graph) is
      already a P_k or a K_m, so no mask survives, not even the empty
      one.  Otherwise the empty mask survives, since g + v(∅) adds no
      edge.  For m = 2 it is the only survivor, since every nonempty M
      spans a K_1.  For k = 2 every vertex is bad, as the path {u} has
      k - 1 = 1 vertex, with the same result.  For k = 3, u is bad iff
      it has a neighbour, and two isolated vertices clash (1 + 1 = 2).
      When g has fewer than k - 1 vertices, the child has fewer than k,
      so no vertex is bad, no pair clashes and nothing is searched.
    Both conditions are closed under taking subsets, so one pass in
    ascending order decides every mask from M - t, t the top vertex of M:
    M survives iff M - t does, t is not bad and clashes with no vertex of
    M - t, and the clique number max(ω(M - t), 1 + ω(N(t) ∩ (M - t)))
    is below m - 1.  M - t and N(t) ∩ (M - t) are smaller subsets of a
    survivor, so they are survivors whose clique numbers are known.
    Each vertex's paths are searched once per parent, and each good pair
    is compared once.  An automorphism a of g maps g + v(S) onto
    g + v(a(S)), so every verdict is invariant under Aut(g), and the
    survivors are closed under it, as _subset_orbits needs.
    """
    k, m = forbid_path, forbid_clique
    if (k is not None and k <= 1) or (m is not None and m <= 1):
        return []
    i, rows = g.n, g.rows
    # clash[u]: the vertices u cannot share a mask with; u itself if bad
    clash = [0] * i
    if k is not None and i >= k - 1:
        paths = [rooted_path_sets(g, u, k) for u in range(i)]
        for u, sets in enumerate(paths):
            if sets is None:
                clash[u] = 1 << u
        good = [u for u in range(i) if not clash[u]]
        for b, w in enumerate(good):
            for u in good[:b]:
                if _paths_clash(paths[u], paths[w], k):
                    clash[u] |= 1 << w
                    clash[w] |= 1 << u
    # table[M] = 1 + clique number of M if M survives, else 0; a survivor
    # has 1 + ω(M) < m, and 1 + ω(M) <= i + 1 always
    limit = i + 2 if m is None else m
    table = bytearray(1 << i)
    table[0] = 1
    out = [0]
    for mask in range(1, 1 << i):
        t = mask.bit_length() - 1
        rest = mask ^ (1 << t)
        w = table[rest]
        if not w or clash[t] & mask:
            continue
        w = max(w, table[rows[t] & rest] + 1)
        if w < limit:
            table[mask] = w
            out.append(mask)
    return out


def _max_degree_masks(g: Graph, masks: list[int]) -> list[int]:
    """The masks M, in their order, for which the new vertex has maximum
    degree in g + v(M): |M| >= deg_g(u) + [u in M] for every vertex u.

    With D the maximum degree of g, that is |M| > D, or |M| = D and M
    holds no vertex of degree D.  The test reads only degrees, so it is
    invariant under Aut(g): masks that were ascending and closed under a
    set of automorphisms stay so."""
    degs = g.degrees()
    top = max(degs, default=0)
    at_top = sum(1 << u for u, d in enumerate(degs) if d == top)
    return [
        mask
        for mask in masks
        if (size := mask.bit_count()) > top or (size == top and not mask & at_top)
    ]


def _extend(
    levels: list[list[tuple[Graph, tuple, str]]],
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    deadline: Optional[float],
) -> list[tuple[Graph, tuple, str]]:
    """The next level after levels[-1]; the deadline is checked once per
    parent, so a budget overruns by at most one parent's extensions.

    Only children whose new vertex has maximum degree are labelled (the
    degree test of canonical augmentation, McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26 (1998)).  Soundness: let G
    be in the class on i + 1 vertices and u a vertex of maximum degree.
    The class is closed under vertex deletion and levels[i] is complete,
    so G - u is isomorphic, by some φ, to a parent P of levels[i];
    M = φ(N(u)) is an attachable mask and P + v(M) ≅ G with v ↦ u, so M
    passes the degree test.  The orbit representative M' = a(M), a in
    the group of P's generators, gives P + v(M') ≅ P + v(M) with v fixed,
    so M' passes too and G is labelled.  The generators may span only a
    subgroup of Aut(P), and one class can arise from several parents, so
    the children are still deduplicated by canonical code."""
    i = len(levels) - 1
    out: dict[str, tuple[Graph, tuple, str]] = {}
    for g, gens, _code in levels[i]:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                f"time budget exhausted after level {i}",
                {"completed_levels": i, "level_sizes": [len(l) for l in levels]},
            )
        masks = _attachable_masks(g, forbid_path, forbid_clique)
        masks = _max_degree_masks(g, masks)
        for orbit in _subset_orbits(masks, gens):
            cf, cgens = canonical_with_generators(_attach(g, orbit[0]))
            code = graph6_encode(cf)
            if code not in out:
                out[code] = (cf, tuple(cgens), code)
    return [out[c] for c in sorted(out)]


def _levels(
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    n: int,
    deadline: Optional[float] = None,
) -> list[list[tuple[Graph, tuple, str]]]:
    key = (forbid_path, forbid_clique)
    g0 = Graph(0, ())
    levels = _LEVEL_CACHE.setdefault(key, [[(g0, (), graph6_encode(g0))]])
    while len(levels) <= n:
        # only whole levels are cached: _extend raises before appending
        levels.append(_extend(levels, forbid_path, forbid_clique, deadline))
    return levels[: n + 1]


def _edge_maximal(g: Graph, k: Optional[int], m: Optional[int]) -> bool:
    """True iff g + uv has a P_k or a K_m for every non-edge uv of g, a
    {P_k, K_m}-free graph; decided in g, building no g + uv.

    Soundness.  A P_k or K_m in g + uv uses uv, since g has none.
    - K_m: its other m - 2 vertices span a K_{m-2} in N(u) ∩ N(v).  For
      m = 2, uv is the K_2 and has_clique_in finds a K_0, so every
      non-edge is blocked; m <= 1 leaves only the graph on 0 vertices.
    - P_k: a path in g that ends at u, then a disjoint path from v, with
      k vertices together.  A prefix of a path from u is a path from u,
      so a longer pair cuts to exactly k, and _paths_clash with k + 1
      compares the sizes a + b = k, as in _attachable_masks.  g has no
      P_k, so rooted_path_sets(g, u, k + 1), which stops only at a path
      on k vertices, never stops early.  For k = 2 the pair {u}, {v}
      blocks every non-edge; for k = 3, uv is blocked iff u or v has a
      neighbour; k <= 1 leaves only the graph on 0 vertices.  With fewer
      than k vertices, g + uv has no room for a P_k, so no path is searched.
    """
    n, rows = g.n, g.rows
    if k is not None and n < k:
        k = None
    paths = [] if k is None else [rooted_path_sets(g, u, k + 1) for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v) & 1:
                continue
            if m is not None and has_clique_in(g, rows[u] & rows[v], m - 2):
                continue
            if k is not None and _paths_clash(paths[u], paths[v], k + 1):
                continue
            return False
    return True


def enumerate_graphs(config: EnumerationConfig) -> list[Graph]:
    """All graphs of the configured class on config.n vertices, one per
    isomorphism class, in canonical labels, sorted by canonical code."""
    deadline = None
    if config.time_budget_s is not None:
        deadline = time.monotonic() + config.time_budget_s
    levels = _levels(config.forbid_path, config.forbid_clique, config.n, deadline)
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
        return canonical(g).decode("ascii")

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
