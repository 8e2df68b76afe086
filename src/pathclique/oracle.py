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
start at each vertex.  Twins have equal verdicts, so a parent costs one
rooted path search per twin class (two for a good class of two or more
vertices), at most one comparison of path sets per pair of good
classes, and one pass over the subsets of the vertices that a kept mask
may hold; the argument is in _attachable_masks.  Only masks that give
the new vertex maximum degree in the child are kept, since every graph
in the class arises by attaching a vertex of maximum degree (see
_extend), so a mask needs at least as many vertices as the parent's
maximum degree, and a parent stops as soon as too few vertices are left
to hold.  Only the masks' orbit representatives under the parent's
automorphisms are built and labelled canonically; they are found among
the masks that hold the lowest vertices of each twin class, closed
under the generators that are not twin swaps (_orbit_representatives).

A min_degree bound δ is pushed into generation (look-ahead): deleting a
vertex lowers every other degree by at most 1, so a graph on n vertices
with min degree >= δ descends from graphs on i vertices with min degree
>= δ - (n - i).  Level n is therefore grown from the unfiltered level
n - δ by δ filtered steps (see _extend).  In those steps a kept mask
must hold every parent vertex of degree below the step's bound; those
vertices are decided first, and a parent where one of them is bad, two
of them clash, or too few vertices are left to hold gets no child before
the other pairs are compared or any mask is built.  The connected_only
and edge_maximal filters are not inherited by subgraphs and stay final;
the edge_maximal one is decided in each finished graph by rooted path
and clique searches in it (see _edge_maximal).

The oracle (ex_oracle, and so verify and the oracle command) needs at
order n only the maximum K_r count and the classes that reach it.  It
labels no other class of that order: each child is scored as
N_r(P) + N_{r-1}(P[M]) from its parent P and mask M without being built,
and only the top-scoring children are labelled (Enumerator.extremal).
Every level below n is labelled in full, as it holds the parents;
classify labels every graph it classifies.

An Enumerator owns the levels: the unfiltered chains, one per
(forbid_path, forbid_clique) pair and shared by every caller, with the
unlabelled candidates of each of their orders, and the filtered chains,
one per (forbid_path, forbid_clique, n, δ).  Only whole levels and
candidate lists are cached, so the cache doubles as a checkpoint: a
timed-out sweep resumes from the last completed one.
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
    _reachable,
    count_cliques,
    count_cliques_in,
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
from .graphs import Graph, induced, iter_bits, lower_twins
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
    min_degree prunes during generation, by look-ahead from the orders
    below n; connected_only and edge_maximal are not closed under vertex
    deletion and are applied only to the finished level; edge_maximal is
    decided in each graph without building g + e.  extremal_r = r keeps
    only the graphs with the most K_r (connected ones, with
    connected_only), found by scoring the unlabelled children on n
    vertices; edge_maximal then filters those winners, which loses no
    maximum.  It cannot be combined with min_degree.
    """

    n: int
    forbid_path: Optional[int] = None
    forbid_clique: Optional[int] = None
    connected_only: bool = False
    min_degree: int = 0
    edge_maximal: bool = False
    time_budget_s: Optional[float] = None
    extremal_r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("n must be nonnegative")
        if self.extremal_r is not None:
            if self.extremal_r < 2:
                raise ParameterError("r must be at least 2")
            if self.min_degree > 0:
                raise ParameterError("extremal_r cannot be combined with min_degree")
        cap = enumeration_cap()
        if self.forbid_path is None and self.forbid_clique is None:
            cap = min(cap, UNCONSTRAINED_CAP)
        if self.n > cap:
            raise CapExceeded(f"n={self.n} exceeds enumeration cap {cap}")


# a level holds (canonical graph, automorphism generators, graph6 code)
Level = list[tuple[Graph, tuple, str]]


def _twin_classes(lower: list[int]) -> dict[int, int]:
    """The twin classes of a graph as bitmasks, each keyed by its lowest
    vertex, in ascending order of it, from its lower twins
    (graphs.lower_twins)."""
    out: dict[int, int] = {}
    for v, low in enumerate(lower):
        c = (low & -low).bit_length() - 1 if low else v
        out[c] = out.get(c, 0) | 1 << v
    return out


def _image_table(bits: list[int]) -> list[int]:
    """table[x] is the union of bits[u] over the set bits u of x, for every
    x below 2 ** len(bits)."""
    table = [0] * (1 << len(bits))
    for x in range(1, len(table)):
        t = x & -x
        table[x] = table[x ^ t] | bits[t.bit_length() - 1]
    return table


def _orbit_representatives(g: Graph, masks: list[int], gens: tuple) -> list[int]:
    """The least mask of each orbit of masks under the group generated by
    gens, ascending.  masks must be ascending and closed under gens, and
    the group must hold every twin swap of g, as the generators of
    canon.canonical_with_generators do.

    Soundness.  Let T be the group of the permutations of g that map
    every twin class onto itself.  A mask is twin-canonical when it holds
    the lowest vertices of each class; every mask has one twin-canonical
    image under T, canon(x).
    - T is generated by the twin swaps, so it lies in the group.  Every
      orbit minimum is twin-canonical: moving a vertex of x to a lower
      vertex of its class outside x is a twin swap and gives a smaller
      mask.  So the first twin-canonical mask met, in ascending order, of
      each orbit is its minimum.
    - An automorphism a maps twin classes onto twin classes, so T is
      normal in the group, and the twin-canonical masks of one orbit are
      the canon(x) of its T-orbits, which the group permutes as a acts by
      canon(a(x)).  They are therefore the closure of any one of them
      under x -> canon(a(x)), a over the generators, and the generators
      in T act as the identity.
    - For x twin-canonical, canon(a(x)) = b(x), where b maps the i-th
      vertex of each class C to the i-th vertex of a(C); b = t a with t
      in T, an automorphism too.
    Each b other than the identity is read from two lookup tables, one
    for the low half of the vertices and one for the high half, so no
    image is built vertex by vertex; so is the union of the next lower
    twins of a mask's vertices, which a twin-canonical mask holds.  A
    parent with at most one mask, or with no generators, builds nothing."""
    if len(masks) <= 1 or not gens:
        return masks
    i = g.n
    lower = lower_twins(g)
    classes = _twin_classes(lower)
    lowest = [(low & -low).bit_length() - 1 if low else v for v, low in enumerate(lower)]
    maps = set()
    for a in gens:
        if all(lowest[a[c]] == c for c in classes):
            continue  # a lies in T
        b = [0] * i
        for c, members in classes.items():
            image = classes[lowest[a[c]]]
            for u in iter_bits(members):
                t = image & -image
                image ^= t
                b[u] = t.bit_length() - 1
        maps.add(tuple(b))
    half = i >> 1
    low_half = (1 << half) - 1
    tables = []
    for b in maps:
        bits = [1 << t for t in b]
        tables.append((_image_table(bits[:half]), _image_table(bits[half:])))
    # a mask is twin-canonical iff it holds the next lower twin of each of
    # its vertices that has one
    below = [1 << (low.bit_length() - 1) if low else 0 for low in lower]
    lo_below, hi_below = _image_table(below[:half]), _image_table(below[half:])
    seen: set[int] = set()
    out = []
    for mask in masks:
        if mask in seen or (lo_below[mask & low_half] | hi_below[mask >> half]) & ~mask:
            continue
        out.append(mask)
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for lo, hi in tables:
                y = lo[x & low_half] | hi[x >> half]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return out


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
    g: Graph,
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    need: int = 0,
    size: int = 0,
) -> list[int]:
    """Every mask M, ascending, for which g + v(M) is {P_k, K_m}-free,
    where g is {P_k, K_m}-free and v is a new vertex with neighbourhood M,
    and which holds every vertex of need and has at least size vertices.

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

    One search per twin class.  An automorphism a of g maps g + v(S) onto
    g + v(a(S)), so every verdict is invariant under Aut(g).  Swapping
    two twins (graphs.lower_twins) is an automorphism, so twins are bad
    together; for u and u' twins and x outside {u, u'}, the swap maps the
    pair {u, x} to {u', x}, so classes C and D that differ share one pair
    verdict; and the permutations of C map every pair inside it onto its
    two lowest vertices.  So each class's lowest vertex is searched, the
    second lowest too when the class has two or more vertices and is
    good, each pair of classes is compared once, and the class verdicts
    are expanded to allowed (the vertices a kept mask may hold) and to
    clash (the allowed vertices each one cannot share a mask with).  need
    and size must be invariant too (they are read from degrees in
    _extend), so need is a union of classes.

    Early exits.  A kept mask holds need and at least size vertices, so
    it holds no bad vertex of need, no clashing pair inside need and no
    vertex that clashes with one of need, and allowed must keep size
    vertices.  The classes of need are searched first, and [] is returned
    at the first bad one; then every other class is searched, and [] is
    returned as soon as fewer than size vertices are left in allowed,
    before any pair is compared; then the pairs inside need are compared,
    and [] is returned at the first clash; then the other classes that
    clash with need leave allowed, with the same test of size.  Only then
    are the pairs of the other classes compared.

    Both conditions are closed under taking subsets, so one pass over
    the submasks of allowed in ascending order decides every mask from
    M - t, t the top vertex of M: M survives iff M - t does, t clashes
    with no vertex of M - t, and the clique number max(ω(M - t),
    1 + ω(N(t) ∩ (M - t))) is below m - 1.  M - t and N(t) ∩ (M - t) are
    smaller submasks of allowed and subsets of a survivor, so they are
    survivors whose clique numbers are known.  allowed and clash are
    invariant under Aut(g), so the kept masks are closed under it, as
    _orbit_representatives needs.
    """
    k, m = forbid_path, forbid_clique
    if (k is not None and k <= 1) or (m is not None and m <= 1) or size > g.n:
        return []
    i, rows = g.n, g.rows
    allowed = (1 << i) - 1
    clash = [0] * i  # clash[u]: the allowed vertices that u cannot share a mask with
    if k is not None and i >= k - 1:
        classes = _twin_classes(lower_twins(g))
        required = [c for c in classes if (need >> c) & 1]
        paths = {}
        for c in required + [c for c in classes if not (need >> c) & 1]:
            sets = rooted_path_sets(g, c, k)
            if sets is not None:
                paths[c] = sets
            elif (need >> c) & 1:
                return []
            else:
                allowed ^= classes[c]
                if allowed.bit_count() < size:
                    return []

        def inner(c: int) -> bool:
            """Whether two vertices of c's class clash, from a search of its
            second vertex; False for a class of one vertex."""
            rest = classes[c] & (classes[c] - 1)
            if not rest:
                return False
            sets = rooted_path_sets(g, (rest & -rest).bit_length() - 1, k)
            return _paths_clash(paths[c], sets, k)

        for b, d in enumerate(required):
            if inner(d) or any(_paths_clash(paths[c], paths[d], k) for c in required[:b]):
                return []
        free = []  # the allowed classes outside need
        for c in paths:
            if (need >> c) & 1:
                continue
            if required and any(_paths_clash(paths[c], paths[d], k) for d in required):
                allowed ^= classes[c]
                if allowed.bit_count() < size:
                    return []
            else:
                free.append(c)
        # across[c]: the vertices of the other free classes that clash with c's
        across = {c: classes[c] if inner(c) else 0 for c in free}
        for b, d in enumerate(free):
            for c in free[:b]:
                if _paths_clash(paths[c], paths[d], k):
                    across[c] |= classes[d]
                    across[d] |= classes[c]
        for c in free:
            for u in iter_bits(classes[c]):
                clash[u] = across[c] & ~(1 << u)
    # table[M] = 1 + clique number of M if M survives, else 0; a survivor
    # has 1 + ω(M) < m, and 1 + ω(M) <= i + 1 always
    limit = i + 2 if m is None else m
    table = bytearray(1 << i)
    table[0] = 1
    out = [] if need or size else [0]
    mask = 0
    while mask != allowed:
        mask = (mask - allowed) & allowed
        t = mask.bit_length() - 1
        rest = mask ^ (1 << t)
        w = table[rest]
        if not w or clash[t] & mask:
            continue
        w = max(w, table[rows[t] & rest] + 1)
        if w < limit:
            table[mask] = w
            if mask & need == need and mask.bit_count() >= size:
                out.append(mask)
    return out


def _degree_masks(g: Graph, masks: list[int]) -> list[int]:
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


def _deadline(time_budget_s: Optional[float]) -> Optional[float]:
    return None if time_budget_s is None else time.monotonic() + time_budget_s


def _time_left(deadline: Optional[float]) -> Optional[float]:
    """The budget left before deadline, never negative; None for none."""
    return None if deadline is None else max(deadline - time.monotonic(), 0.0)


def _check_deadline(deadline: Optional[float], levels: list[Level], stage: str) -> None:
    """Raise BudgetExceeded, with the whole levels built so far and the
    stage, once the deadline has passed."""
    if deadline is not None and time.monotonic() > deadline:
        done = len(levels) - 1
        raise BudgetExceeded(
            f"time budget exhausted in the {stage} stage after level {done}",
            {
                "completed_levels": done,
                "level_sizes": [len(l) for l in levels],
                "stage": stage,
            },
        )


def _check_command_deadline(
    deadline: Optional[float], stage: str, n: int, done: dict
) -> None:
    """Raise BudgetExceeded, with the stage, the n reached and the counts
    in done, once a command's deadline has passed; for the stages of
    verify and classify that come after the enumeration of an order."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            f"time budget exhausted in the {stage} stage at n = {n}",
            {"stage": stage, "n": n, **done},
        )


# a child of the next level, not yet built: a parent and an attachment mask
Candidate = tuple[Graph, int]


def _candidates(
    levels: list[Level],
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    bound: int,
    deadline: Optional[float],
) -> list[Candidate]:
    """The children (parent, mask) of the next level after levels[-1],
    restricted to min degree >= bound (0: unfiltered), one per orbit of
    kept masks, in parent order; none is built or labelled.  The deadline
    is checked once per parent.

    Only children whose new vertex has maximum degree are kept (the
    degree test of canonical augmentation, McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26 (1998)).  Soundness: let G
    be in the class on i + 1 vertices and u a vertex of maximum degree.
    The class is closed under vertex deletion and levels[i] is complete,
    so G - u is isomorphic, by some φ, to a parent P of levels[i];
    M = φ(N(u)) is an attachable mask and P + v(M) ≅ G with v ↦ u, so M
    passes the degree test.  The orbit representative M' = a(M), a in
    the group of P's generators, gives P + v(M') ≅ P + v(M) with v fixed,
    so M' passes too and G has a candidate.  The generators may span only
    a subgroup of Aut(P), and one class can arise from several parents,
    so one class can have several candidates.

    Look-ahead.  For bound > 0, levels[i] must hold exactly the graphs of
    the class on i vertices with min degree >= bound - 1, and only masks
    whose child has min degree >= bound are kept: M holds need, the
    vertices of degree < bound (degree bound - 1, raised only by v), and
    |M| >= bound.  The argument above still holds: G - u, for u of
    maximum degree in G, loses at most 1 from every other degree, so it
    has min degree >= bound - 1 and lies in levels[i], which is complete
    for its own bound; M = φ(N(u)) gives a child isomorphic to G, so it
    passes the min-degree test.

    _attachable_masks keeps only the masks that hold need and have at
    least size = max(D, bound) vertices, D the maximum degree of g, the
    least |M| that passes both tests; for bound = 0, need is empty.  Both
    are read from degrees, so they are invariant under Aut(g), M' in the
    orbit of M passes too, and the kept masks are closed under the
    generators.  Those hold every twin swap of P
    (canonical_with_generators), so _orbit_representatives can take the
    least twin-canonical mask of each orbit and apply no twin swap."""
    out: list[Candidate] = []
    for g, gens, _code in levels[-1]:
        _check_deadline(deadline, levels, "levels")
        degs = g.degrees()
        need = sum(1 << u for u, d in enumerate(degs) if d < bound)
        size = max(max(degs, default=0), bound)
        masks = _attachable_masks(g, forbid_path, forbid_clique, need, size)
        masks = _degree_masks(g, masks)
        out += [(g, mask) for mask in _orbit_representatives(g, masks, gens)]
    return out


def _label(levels: list[Level], candidates: list[Candidate], deadline: Optional[float]) -> Level:
    """The level of the candidates' children: each built, labelled
    canonically and kept once per code, with the generators of the first
    child of its class, sorted by code.  The deadline is checked once per
    child; levels are the whole levels below, for BudgetExceeded."""
    out: dict[str, tuple[Graph, tuple, str]] = {}
    for g, mask in candidates:
        _check_deadline(deadline, levels, "levels")
        cf, cgens = canonical_with_generators(_attach(g, mask))
        code = graph6_encode(cf)
        if code not in out:
            out[code] = (cf, tuple(cgens), code)
    return [out[c] for c in sorted(out)]


def _extend(
    levels: list[Level],
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    bound: int,
    deadline: Optional[float],
) -> Level:
    """The next level after levels[-1], restricted to min degree >= bound
    (0: unfiltered); the deadline is checked once per parent and once per
    child, so a budget overruns by at most one parent's extensions."""
    candidates = _candidates(levels, forbid_path, forbid_clique, bound, deadline)
    return _label(levels, candidates, deadline)


class Enumerator:
    """Owns the enumeration levels, each sorted by graph6 code.

    unfiltered[(k, m)] is the chain of levels 0, 1, ... of the class of
    {P_k, K_m}-free graphs, shared by every caller, and candidates[(k, m)]
    holds, beside it, the candidates of each order 1, 2, ... it has
    computed; a level is labelled from its candidates, and an order whose
    extremal graphs were asked for may have candidates but no level yet.
    filtered[(k, m, n, δ)] holds the levels n - δ + 1, ..., n of the
    look-ahead chain for order n and min degree δ: level i of it has min
    degree >= δ - (n - i).  It grows from the unfiltered level n - δ,
    where that bound is 0, so the unfiltered chain is built only to
    n - δ.  Only whole levels and whole candidate lists are appended:
    _candidates and _label raise before they return."""

    def __init__(self) -> None:
        self.unfiltered: dict[tuple, list[Level]] = {}
        self.candidates: dict[tuple, list[list[Candidate]]] = {}
        self.filtered: dict[tuple, list[Level]] = {}

    def clear(self) -> None:
        self.unfiltered.clear()
        self.candidates.clear()
        self.filtered.clear()

    def children(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        deadline: Optional[float] = None,
    ) -> list[Candidate]:
        """The candidates of order n of the unfiltered chain, computed once
        from the level n - 1; the graph on 0 vertices has none."""
        cached = self.candidates.setdefault((forbid_path, forbid_clique), [[]])
        while len(cached) <= n:
            levels = self.levels(forbid_path, forbid_clique, len(cached) - 1, deadline)
            cached.append(_candidates(levels, forbid_path, forbid_clique, 0, deadline))
        return cached[n]

    def levels(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        deadline: Optional[float] = None,
    ) -> list[Level]:
        """The unfiltered levels 0, ..., n."""
        key = (forbid_path, forbid_clique)
        if key not in self.unfiltered:
            g0 = Graph(0, ())
            self.unfiltered[key] = [[(g0, (), graph6_encode(g0))]]
        levels = self.unfiltered[key]
        while len(levels) <= n:
            candidates = self.children(forbid_path, forbid_clique, len(levels), deadline)
            levels.append(_label(levels, candidates, deadline))
        return levels[: n + 1]

    def chain(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        min_degree: int,
        deadline: Optional[float],
    ) -> list[Level]:
        """The levels 0, ..., n of the chain whose level n holds the graphs
        of the class on n vertices with min degree >= min_degree; [] when
        there are none."""
        delta = max(min_degree, 0)
        if delta > max(n - 1, 0):
            # min degree is at most n - 1, and 0 on the graph on 0 vertices
            return []
        levels = self.levels(forbid_path, forbid_clique, n - delta, deadline)
        if not delta:
            return levels
        tail = self.filtered.setdefault((forbid_path, forbid_clique, n, delta), [])
        while len(tail) < delta:
            tail.append(
                _extend(levels + tail, forbid_path, forbid_clique, len(tail) + 1, deadline)
            )
        return levels + tail

    def extremal(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        r: int,
        connected: bool,
        deadline: Optional[float],
    ) -> tuple[list[Level], list[Graph]]:
        """The levels 0, ..., n - 1 and the graphs of the class on n
        vertices (connected ones only, if connected) with the most K_r, in
        canonical labels, sorted by code.  Only the candidates of order n
        with the top score are built and labelled; the deadline is checked
        once per parent and once per labelled child.

        Soundness.  Every class on n vertices has a candidate (_candidates),
        and every candidate's child is in the class.  A K_r of P + v(M)
        either avoids v, and is a K_r of P, or holds v and a K_{r-1} inside
        N(v) = M, so the score N_r(P) + N_{r-1}(P[M]) is exactly N_r of the
        child.  v joins the components of P that M meets and no other, so
        P + v(M) is connected iff M meets every component of P.  The
        maximum over the candidates is therefore the maximum over the
        classes, the winners' children are exactly the extremal classes,
        and labelling them gives each once, in the canonical form the level
        would hold.  The graph on 0 vertices has no parent and no K_r."""
        if n == 0:
            levels = self.levels(forbid_path, forbid_clique, 0, deadline)
            return levels, [g for g, _gens, _code in levels[0]]
        candidates = self.children(forbid_path, forbid_clique, n, deadline)
        levels = self.levels(forbid_path, forbid_clique, n - 1, deadline)
        best, top = -1, []
        parent = None
        for g, mask in candidates:
            if g is not parent:
                _check_deadline(deadline, levels, "extremal")
                parent, base, components = g, count_cliques(g, r), []
                rest = g.vertex_mask() if connected else 0
                while rest:
                    components.append(_reachable(g.rows, rest & -rest, 0))
                    rest &= ~components[-1]
            if not all(mask & c for c in components):
                continue
            score = base + count_cliques_in(g, mask, r - 1)
            if score > best:
                best, top = score, []
            if score == best:
                top.append((g, mask))
        winners: dict[str, Graph] = {}
        for g, mask in top:
            _check_deadline(deadline, levels, "extremal")
            cf, _cgens = canonical_with_generators(_attach(g, mask))
            winners.setdefault(graph6_encode(cf), cf)
        return levels, [winners[c] for c in sorted(winners)]


_ENUMERATOR = Enumerator()


def clear_cache() -> None:
    """Empty the enumerator's chains and candidates and the classifier's
    table of candidates."""
    _ENUMERATOR.clear()
    class_table.cache_clear()


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
    paths: list = [None] * n  # each vertex's paths, searched on first use
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v) & 1:
                continue
            if m is not None and has_clique_in(g, rows[u] & rows[v], m - 2):
                continue
            if k is not None:
                pu = paths[u] = paths[u] or rooted_path_sets(g, u, k + 1)
                pv = paths[v] = paths[v] or rooted_path_sets(g, v, k + 1)
                if _paths_clash(pu, pv, k + 1):
                    continue
            return False
    return True


def enumerate_graphs(config: EnumerationConfig) -> list[Graph]:
    """All graphs of the configured class on config.n vertices, one per
    isomorphism class, in canonical labels, sorted by canonical code; with
    extremal_r, only those with the most K_r (Enumerator.extremal).

    The time budget starts with the call.  Its deadline is checked once
    per parent while levels or candidates are built, once per labelled
    child, and once per graph in the final filters, so the call overruns
    it by at most one parent's extensions or one graph's filters;
    BudgetExceeded.stats names the stage."""
    deadline = _deadline(config.time_budget_s)
    k, m, n = config.forbid_path, config.forbid_clique, config.n
    connected = config.connected_only
    if config.extremal_r is None:
        levels = _ENUMERATOR.chain(k, m, n, config.min_degree, deadline)
        graphs = [g for g, _gens, _code in levels[-1]] if levels else []
    else:
        levels, graphs = _ENUMERATOR.extremal(
            k, m, n, config.extremal_r, connected, deadline
        )
        connected = False  # decided on the candidates
    out = []
    for g in graphs:
        if connected or config.edge_maximal:
            _check_deadline(deadline, levels, "filters")
        if connected and not is_connected(g):
            continue
        if config.edge_maximal and not _edge_maximal(g, k, m):
            continue
        out.append(g)
    return out


@dataclass(frozen=True)
class ExtremalResult:
    """Exact maximum K_r count with every extremal class captured.

    stats holds the number of extremal classes; per-level counters of the
    enumeration are planned (ROADMAP, in-program counters)."""

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
    problems (clique-only, path-only).  The children on n vertices are
    scored without being built and only the extremal ones are labelled
    (EnumerationConfig.extremal_r).  With edge_maximal_only the maximum
    is still exact, because saturating an extremal graph keeps it in the
    class and connected and never lowers N_r, but the extremal list then
    omits non-maximal extremal graphs.
    """
    config = EnumerationConfig(
        n=n,
        forbid_path=k,
        forbid_clique=m,
        connected_only=connected,
        edge_maximal=edge_maximal_only,
        time_budget_s=time_budget_s,
        extremal_r=r,
    )
    graphs = enumerate_graphs(config)
    if not graphs:
        raise ParameterError(f"no graphs in the class at n={n}")
    extremal = sorted(graph6_encode(g) for g in graphs)
    return ExtremalResult(
        n=n,
        r=r,
        value=count_cliques(graphs[0], r),
        extremal=tuple(extremal),
        witness=extremal[0],
        stats={"extremal": len(extremal)},
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
    should be exact) is the failure state.  The time budget is one for
    the whole sweep: each n gets the time left, and the deadline is also
    checked before each n's check of the predicted family (stage
    "family", with the n reached and the rows done), so the sweep
    overruns it by at most one parent's extensions, one graph's filters
    or one family check.
    """
    if scope not in ("connected", "all"):
        raise ParameterError("scope must be 'connected' or 'all'")
    deadline = _deadline(time_budget_s)
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
            time_budget_s=_time_left(deadline),
        )
        if result.value == predicted:
            status = "EQUAL"
        elif result.value > predicted:
            status = "ORACLE_GREATER"
        elif not exact:
            status = "BOUND_RESPECTED"
        else:
            status = "MISMATCH"
        _check_command_deadline(deadline, "family", n, {"rows": len(rows)})
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
    counterexample and is reported by code.  The time budget is one for
    the whole sweep: each n gets the time left, and the deadline is also
    checked once per classified graph (stage "classify", with the n
    reached), so the sweep overruns it by at most one classification.
    """
    # read from detect at call time, where the perfbench tracer binds it
    from .detect import classify_structure

    TheoremParams(k, m, 2)
    deadline = _deadline(time_budget_s)
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
            time_budget_s=_time_left(deadline),
        )
        for g in enumerate_graphs(config):
            _check_command_deadline(deadline, "classify", n, {"classified": total})
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
