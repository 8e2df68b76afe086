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
classes, and one pass that grows only the masks holding the lowest
vertices of each twin class (twin-canonical), each from a smaller one;
the argument is in _attachable_masks.  Only masks that give the new
vertex maximum degree in the child are kept, since every graph in the
class arises by attaching a vertex of maximum degree (see _candidates),
so a mask needs at least as many vertices as the parent's maximum
degree, and a parent stops as soon as too few vertices are left to
hold.  Only the masks' orbit representatives under the parent's
automorphisms are built and labelled canonically; every orbit minimum
is twin-canonical, so they are found among the twin-canonical masks by
closing them under the generators that are not twin swaps
(_orbit_representatives).  Children and canonical forms are valid by
construction and built without the Graph check.

A min_degree bound δ is pushed into generation (look-ahead): deleting a
vertex lowers every other degree by at most 1, so a graph on n vertices
with min degree >= δ descends from a graph on n - 1 vertices with min
degree >= δ - 1.  Level (n, δ), the graphs of the class on n vertices
with min degree >= δ, is therefore grown from level (n - 1, max(δ - 1,
0)) with bound δ (Enumerator.children), and level (n, 0) is the
unfiltered one; so level (n, δ) rests on the unfiltered level n - δ, and
the chain of (N, δ) holds level (n, δ - (N - n)) for every n between.
With a bound, a kept mask must hold every parent vertex of degree below
it; those vertices are decided first, and a parent where one of them is
bad, two of them clash, or too few vertices are left to hold gets no
child before the other pairs are compared or any mask is built.  The
connected_only and edge_maximal filters are not inherited by subgraphs
and stay final; the edge_maximal one is decided in each finished graph
by rooted path and clique searches in it (see _edge_maximal).  Over a
level that is not stored, connected_only is decided on the candidates
before they are labelled, and only the connected ones are labelled
(Enumerator.connected): the new vertex joins the components of its
parent that its mask meets, so the child is connected iff the mask
meets every component of the parent.

Canonical augmentation needs its parents only up to isomorphism, so a
level is labelled only when something reads it.  A step to level
(n, δ) with δ >= 2 whose parent level (n - 1, δ - 1) is not stored is
grown from the unlabelled candidates of that level instead, and the
parent level is not labelled (Enumerator.children); so classify over
one n, which reads only the candidates of level (n, δ_k), labels no
level strictly between the unfiltered level n - δ_k and n.  A step with
bound 0 or 1, or over a stored parent level, reads it labelled.

The oracle (ex_oracle, and so verify and the oracle command) needs at
order n only the maximum K_r count and the classes that reach it.  It
labels no other class of that order: each child is scored as
N_r(P) + N_{r-1}(P[M]) from its parent P and mask M without being built,
and only the top-scoring children are labelled (Enumerator.extremal).
It needs no canonical augmentation to find a maximum, so it attaches
the new vertex as a vertex of minimum degree, not maximum: every graph
of the class arises from a parent P with a mask of at most δ(P) + 1
vertices, δ(P) the min degree of P, and no child of P scores more than
N_r(P) + min(N_{r-1}(P), C(δ(P) + 1, r - 1)).  The parents are visited
by that bound, highest first, and the visit stops at the first bound
strictly below the best score so far; a parent whose bound ties the
best is still visited, so no tied class is lost.  Levels n - 1 and
n - 2 are neither labelled nor grown for this unless they are already
stored: the same rule, applied s times, bounds order n from the graphs
D of level n - s, s the least of 1, 2 and 3 with level n - s stored (3,
or n if n < 3, when neither n - 1 nor n - 2 is), by N_r(D) +
min(N_{r-1}(D), C(δ(D) + 1, r - 1)) + Σ_{j=2..s} C(δ(D) + j, r - 1),
and only the roots D so visited are extended, into graphs built but not
labelled, which are visited the same way at s - 1 steps, down to the
parents of the last step.  Those unlabelled graphs repeat classes, so a
call visits one graph per degree key at each of those steps: the graph
relabelled by degree and neighbour degrees, so that equal keys mean
isomorphic graphs.  Every level up to n - s is labelled in full.
verify labels level N - 3 first, N its largest n, so N - 2, N - 1 and
N take one, two and three steps, and neither N - 2 nor N - 1 is
labelled.  classify labels, at its largest order N, only the connected
children, and stores no level of that order: it first reads labelled,
in ascending order, the levels of its smaller orders, so that every
step above one of them reads it labelled.  When r >= m or r >= k, no
graph of the class has a K_r (K_r holds a K_m, and a P_r, which holds a
P_k), so every class ties at 0: the oracle then reads level n, or its
connected graphs, and scores nothing.

An Enumerator owns the levels, one per (forbid_path, forbid_clique, n, δ)
and shared by every caller; a level's candidates are computed where they
are read and kept nowhere.  It also owns what the oracle's top order
read of each graph it bounded or visited (its min degree, its clique
counts, its masks and its degree key), per (forbid_path, forbid_clique,
order) and graph, so that a later call searches no graph again; those
of an order are dropped once its unfiltered level is labelled.  Only
whole levels and whole entries are cached, so the cache doubles as a
checkpoint: a timed-out sweep resumes from the last completed one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

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
from .graphs import Graph, _unchecked_graph, induced, iter_bits, lower_twins, twin_classes
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


def enumeration_cap(forbid_path: Optional[int], forbid_clique: Optional[int]) -> int:
    """The largest order enumerated in the class: PATHCLIQUE_ENUM_CAP, at
    most HARD_CAP, or UNCONSTRAINED_CAP when nothing is forbidden."""
    cap = UNCONSTRAINED_CAP if forbid_path is None and forbid_clique is None else HARD_CAP
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return cap
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if value < 0:
        raise ParameterError(f"{CAP_ENV_VAR} must be nonnegative")
    return min(value, cap)


@dataclass(frozen=True)
class EnumerationConfig:
    """What to enumerate: order, forbidden subgraphs, final filters.

    forbid_path / forbid_clique of None mean unconstrained; fully
    unconstrained runs are capped harder because the class explodes.
    min_degree prunes during generation, by look-ahead from the orders
    below n; connected_only and edge_maximal are not closed under vertex
    deletion and are not pushed below order n.  edge_maximal is applied
    to the finished level and decided in each graph without building
    g + e; connected_only is decided by Enumerator.connected.
    extremal_r = r keeps only the graphs with the most K_r (connected
    ones, with connected_only), found by scoring the unlabelled children
    on n vertices; edge_maximal then filters those winners, which loses
    no maximum.  It cannot be combined with min_degree.
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
        cap = enumeration_cap(self.forbid_path, self.forbid_clique)
        if self.n > cap:
            raise CapExceeded(f"n={self.n} exceeds enumeration cap {cap}")


# a level holds (canonical graph, automorphism generators, graph6 code)
Level = list[tuple[Graph, tuple, str]]


class Budget:
    """One call's time budget, started when the object is made; Budget()
    never runs out.  Every stage of a call is handed the same object and
    calls check once per unit of work: per parent while candidates are
    built, per child labelled, per unlabelled parent extended, per graph
    bounded and per graph visited at each of the top order's steps (the
    roots, the unlabelled graphs between and the parents), per winner
    labelled there (Enumerator.extremal), per graph in the final
    filters, before each n's check of the predicted family (verify) and
    per classified graph (classify).  A call therefore overruns its
    budget by at most one parent's extensions, one graph's filters, one
    family check or one classification.  level_sizes are the sizes of
    the chain of the last level read (Enumerator.level writes them), from
    level 0 up to the first level of that chain that is not labelled:
    every enumeration stage reads a labelled level first: its parent
    level, the level of its roots (the top order), or the one that its
    unlabelled parents were grown from.  A level that enumeration skipped
    (Enumerator.children) is therefore never in level_sizes, and neither
    is any level above it.  A budget holds no graph."""

    def __init__(self, seconds: Optional[float] = None) -> None:
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.level_sizes: list[int] = []

    def left(self) -> Optional[float]:
        """The time left, never negative; None when there is no budget."""
        return None if self.deadline is None else max(self.deadline - time.monotonic(), 0.0)

    def check(self, stage: str, **done) -> None:
        """Raise BudgetExceeded once the deadline is reached.  Its stats
        name the stage and either the counts in done (the n reached and
        the rest), for the stages that follow an order's enumeration, or
        the levels of level_sizes (completed_levels, the order of the
        last, and level_sizes)."""
        if self.deadline is None or time.monotonic() < self.deadline:
            return
        if done:
            where, stats = f"at n = {done['n']}", {"stage": stage, **done}
        else:
            last = len(self.level_sizes) - 1
            where = f"after level {last}"
            stats = {"completed_levels": last, "level_sizes": self.level_sizes, "stage": stage}
        raise BudgetExceeded(f"time budget exhausted in the {stage} stage {where}", stats)


_NO_BUDGET = Budget()


def _orbit_representatives(masks: list[int], gens: tuple, lower: list[int]) -> list[int]:
    """The least mask of each orbit of masks under the group generated by
    gens, ascending, for a graph with lower twins lower
    (graphs.lower_twins).  masks must be ascending and twin-canonical,
    and hold the twin-canonical masks of every orbit they meet; the group
    must hold every twin swap of the graph, as the generators of
    canon.canonical_with_generators do.

    Soundness.  Let T be the group of the permutations of the graph that
    map every twin class onto itself.  A mask is twin-canonical when it
    holds the lowest vertices of each class; every mask has one
    twin-canonical image under T, canon(x).
    - T is generated by the twin swaps, so it lies in the group.  Every
      orbit minimum is twin-canonical: moving a vertex of x to a lower
      vertex of its class outside x is a twin swap and gives a smaller
      mask.  So the first mask met, in ascending order, of each orbit is
      its minimum.
    - An automorphism a maps twin classes onto twin classes, so T is
      normal in the group, and the twin-canonical masks of one orbit are
      the canon(x) of its T-orbits, which the group permutes as a acts by
      canon(a(x)).  They are therefore the closure of any one of them
      under x -> canon(a(x)), a over the generators, and the generators
      in T act as the identity.
    - For x twin-canonical, canon(a(x)) = b(x), where b maps the i-th
      vertex of each class C to the i-th vertex of a(C), the image of C's
      members; b = t a with t in T, an automorphism too.
    With the classes of graphs.twin_classes, a generator a lies in T iff
    classes[c] >> a[c] & 1 for every class c, since a maps the class of
    c onto the class of a(c).  The image b(x) of a mask is the union of
    b(u) over its vertices u.  A graph with at most one mask, or with no
    generators, builds nothing."""
    if len(masks) <= 1 or not gens:
        return masks
    classes = twin_classes(lower)
    maps = set()
    for a in gens:
        if all(classes[c] >> a[c] & 1 for c in classes):
            continue  # a lies in T
        b = [0] * len(lower)
        for members in classes.values():
            image = sum(1 << a[u] for u in iter_bits(members))
            for u in iter_bits(members):
                b[u] = image & -image
                image ^= b[u]
        maps.add(tuple(b))
    seen: set[int] = set()
    out = []
    for mask in masks:
        if mask in seen:
            continue
        out.append(mask)
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for b in maps:
                y = 0
                for u in iter_bits(x):
                    y |= b[u]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return out


def _attach(g: Graph, mask: int) -> Graph:
    """g plus a new vertex g.n adjacent to the vertices of mask."""
    bit = 1 << g.n
    rows = [r | bit if (mask >> u) & 1 else r for u, r in enumerate(g.rows)]
    rows.append(mask)
    return _unchecked_graph(g.n + 1, tuple(rows))


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
    bound: int = 0,
    lower: Optional[list[int]] = None,
    most: Optional[int] = None,
) -> list[int]:
    """Every twin-canonical mask M, ascending, for which g + v(M) is
    {P_k, K_m}-free and has min degree >= bound, and v has maximum degree
    in it (the degree test of _candidates), where g is {P_k, K_m}-free
    and v is a new vertex with neighbourhood M.  lower is
    graphs.lower_twins(g), computed if not given.  A mask is
    twin-canonical when it holds the lowest vertices of each twin class,
    that is, the next lower twin of each of its vertices that has one.
    Both tests are read from the degrees of g: M holds need, the vertices
    of degree < bound, and has at least size = max(D, bound) vertices, D
    the maximum degree; v then has maximum degree unless |M| = D and M
    holds a vertex of degree D.  With most given (the top order of
    Enumerator.extremal), there is no degree test, so size = bound, and
    only the masks of at most most vertices are kept.

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
    and size are read from degrees, so they are invariant too, and need
    is a union of classes.

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

    Only twin-canonical survivors are grown.  A table of them, each with
    its clique number, starts at the empty mask and grows one top vertex
    t at a time, t ascending over allowed: a mask M of the table gets t
    iff M holds t's next lower twin, t clashes with no vertex of M, and
    max(ω(M), 1 + ω(N(t) ∩ M)) is below m - 1.  Soundness: let M' be
    twin-canonical with top vertex t, and M = M' - t.
    - M is twin-canonical: a vertex u of M has its next lower twin u'
      below u < t, and u' is in M'.
    - N(t) ∩ M is twin-canonical: for u in it, u' is in M, and t is
      neither u nor u', so t ~ u iff t ~ u' (twins), and u' is in N(t).
    - Both conditions (no bad vertex or clashing pair, no K_{m-1}) are
      closed under taking subsets, so M' survives iff M survives, t
      clashes with no vertex of M and that clique number is below m - 1.
      By induction on t, M and N(t) ∩ M are twin-canonical survivors
      with top below t, so they are in the table when t is tried, and no
      twin-canonical survivor is lost.  Masks are added in ascending
      order, since those that get t exceed every mask of the table and
      are added in its order.
    - With most, a mask of the table that already has most vertices is
      not grown, so the table holds exactly the twin-canonical survivors
      of at most most vertices: when M' has at most most vertices, so do
      its subsets M and N(t) ∩ M, and the same induction holds.
    need, size and the case |M| = D of the degree test are read on the
    output.  allowed, clash and all three are invariant under Aut(g), so
    the kept masks hold the twin-canonical masks of every orbit they
    meet, as _orbit_representatives needs.
    """
    k, m = forbid_path, forbid_clique
    i, rows = g.n, g.rows
    degs = g.degrees()
    top = max(degs, default=0)
    size = bound if most is not None else max(top, bound)
    if (k is not None and k <= 1) or (m is not None and m <= 1) or size > i:
        return []
    need = sum(1 << u for u, d in enumerate(degs) if d < bound)
    if lower is None:
        lower = lower_twins(g)
    allowed = (1 << i) - 1
    clash = [0] * i  # clash[u]: the allowed vertices that u cannot share a mask with
    if k is not None and i >= k - 1:
        classes = twin_classes(lower)
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
    # table[M] = 1 + ω(M) for the twin-canonical survivors M, in ascending
    # order; a survivor has 1 + ω(M) < m, and 1 + ω(M) <= i + 1 always
    limit = i + 2 if m is None else m
    table = {0: 1}
    for t in iter_bits(allowed):
        low = lower[t]
        below = 1 << (low.bit_length() - 1) if low else 0
        bit, row, clash_t = 1 << t, rows[t], clash[t]
        if most is None:
            grows = list(table.items())
        else:
            grows = [(mask, w) for mask, w in table.items() if mask.bit_count() < most]
        for mask, w in grows:
            if mask & below != below or clash_t & mask:
                continue
            w = max(w, table[row & mask] + 1)
            if w < limit:
                table[mask | bit] = w
    at_top = 0 if most is not None else sum(1 << u for u, d in enumerate(degs) if d == top)
    return [
        mask
        for mask in table
        if mask & need == need
        and (count := mask.bit_count()) >= size
        and not (count == top and mask & at_top)
    ]


# a child of the next level, not yet built: a parent and an attachment mask
Candidate = tuple[Graph, int]


def _candidates(
    parents: Iterable[tuple],
    forbid_path: Optional[int],
    forbid_clique: Optional[int],
    bound: int,
    budget: Budget,
) -> list[Candidate]:
    """The children (parent, mask) of the parent level, restricted to min
    degree >= bound (0: unfiltered), one per orbit of kept masks, in
    parent order; none is built or labelled.  A parent given no
    generators keeps every mask.  The budget is checked once per parent.

    Only children whose new vertex has maximum degree are kept (the
    degree test of canonical augmentation, McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26 (1998)).  Soundness: let G
    be in the class on i + 1 vertices and u a vertex of maximum degree.
    The class is closed under vertex deletion and the parent level is
    complete, so G - u is isomorphic, by some φ, to a parent P;
    M = φ(N(u)) is an attachable mask and P + v(M) ≅ G with v ↦ u, so M
    passes the degree test.  The orbit representative M' = a(M), a in
    the group of P's generators, gives P + v(M') ≅ P + v(M) with v fixed,
    so M' passes too and G has a candidate.  The generators may span only
    a subgroup of Aut(P), and one class can arise from several parents,
    so one class can have several candidates.

    Look-ahead.  For bound > 0, the parents must be graphs of the class
    on i vertices with min degree >= bound - 1, at least one of each
    isomorphism class (a level, or the unlabelled children of its
    candidates, Enumerator.children), and only masks whose child has min
    degree >= bound are kept.  The argument above still holds: G - u, for
    u of maximum degree in G, loses at most 1 from every other degree, so
    it has min degree >= bound - 1 and is isomorphic to a parent, as the
    parents are complete for their own bound; M = φ(N(u)) passes the
    min-degree test.

    _attachable_masks applies both tests to the twin-canonical masks;
    they are read from degrees, so they are invariant under Aut(g): M'
    in the orbit of M passes too, and the kept masks hold the
    twin-canonical masks of every orbit they meet.  The generators hold
    every twin swap of P (canonical_with_generators), so
    _orbit_representatives can take the least twin-canonical mask of
    each orbit and apply no twin swap.  The lower twins
    (graphs.lower_twins) are computed once per parent for both, and each
    reads the classes from them with graphs.twin_classes."""
    out: list[Candidate] = []
    for g, gens, *_code in parents:
        budget.check("levels")
        lower = lower_twins(g)
        masks = _attachable_masks(g, forbid_path, forbid_clique, bound, lower)
        out += [(g, mask) for mask in _orbit_representatives(masks, gens, lower)]
    return out


def _components(g: Graph) -> list[int]:
    """The vertex sets of g's connected components, as bit masks."""
    components = []
    rest = g.vertex_mask()
    while rest:
        components.append(_reachable(g.rows, rest & -rest))
        rest &= ~components[-1]
    return components


def _label(candidates: list[Candidate], budget: Budget, stage: str = "levels") -> Level:
    """The level of the candidates' children: each built, labelled
    canonically and kept once per code, with the generators of the first
    child of its class, sorted by code.  The budget is checked once per
    child in stage."""
    out: dict[str, tuple[Graph, tuple, str]] = {}
    for g, mask in candidates:
        budget.check(stage)
        cf, cgens = canonical_with_generators(_attach(g, mask))
        code = graph6_encode(cf)
        if code not in out:
            out[code] = (cf, tuple(cgens), code)
    return [out[c] for c in sorted(out)]


def _degree_key(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the graph relabelled in a stable order of (degree,
    multiset of neighbour degrees), one refinement round: each vertex's
    multiset is read as its number of neighbours of each degree of the
    graph.  The key is the graph itself, relabelled, so graphs with equal
    keys are isomorphic; isomorphic graphs often, but not always, have
    equal keys."""
    deg = [r.bit_count() for r in rows]
    by_degree: dict[int, int] = {}
    for v, d in enumerate(deg):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree)]
    sig = []
    for r, d in zip(rows, deg):
        for c in classes:
            d = d << 6 | (r & c).bit_count()  # a count is at most 63
        sig.append(d)
    order = sorted(range(len(rows)), key=sig.__getitem__)
    bit = [0] * len(rows)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    out = []
    for v in order:
        r, row = rows[v], 0
        while r:
            low = r & -r
            row |= bit[low.bit_length() - 1]
            r ^= low
        out.append(row)
    return tuple(out)


class _Searched:
    """What Enumerator.extremal reads of one graph g at its top order: δ(g)
    (low), N_j(g) for each j asked so far (cliques), once g has been
    visited, _attachable_masks(g, k, m, most=δ(g) + 1) (masks), and, once
    g has been visited below the roots, _degree_key(g.rows) (key).  All
    are functions of (k, m, g.rows) alone."""

    __slots__ = ("low", "cliques", "masks", "key")

    def __init__(self, low: int) -> None:
        self.low = low
        self.cliques: dict[int, int] = {}
        self.masks: Optional[list[int]] = None
        self.key: Optional[tuple[int, ...]] = None

    def count(self, g: Graph, j: int) -> int:
        """N_j(g), counted on the first ask."""
        if j not in self.cliques:
            self.cliques[j] = count_cliques(g, j)
        return self.cliques[j]


class Enumerator:
    """Owns the enumeration levels, each sorted by graph6 code.

    levels[(k, m, n, δ)] is level (n, δ): the graphs of the class of
    {P_k, K_m}-free graphs on n vertices with min degree >= δ, shared by
    every caller; δ = 0 is the unfiltered level.  It is labelled once
    (level), from the candidates of level (n, δ): the children of level
    (n - 1, max(δ - 1, 0)) with min degree >= δ (children), computed where
    they are read and not stored.  At a step with δ >= 2 whose parent
    level is not stored they are grown from its unlabelled candidates,
    and the parent level stays unlabelled (a skipped level).  So a level
    is labelled only when something reads it: a caller, a chain, or a
    step with bound 0 or 1.  The top order of the extremal graphs
    (extremal) reads level (n - 1, 0) when it is stored, else level
    (n - 2, 0) when it is, and else level (n - 3, 0), and builds what it
    needs of the orders above unlabelled, so asking for the extremal
    graphs of order n stores no level of order n - 1 or n - 2.  Its one
    store is searched[(k, m, i)][g.rows]: for each graph g of order i
    that it bounded, δ(g), N_j(g) for each j asked, once g is visited,
    its masks, and, once it is visited below the roots, its degree key
    (_Searched, _degree_key).  Every later call reads them, so no graph
    is searched or keyed twice; which keys a call has visited is kept
    for that call only.  The entries of order n are dropped when
    level (n, 0) is stored: they were unlabelled graphs, and extremal
    reads that level from then on.  A cell where every class ties
    (r >= m or r >= k) reads level n instead, or its connected graphs.
    The connected graphs of a level that is not stored (connected) are
    labelled from its candidates and not stored.  Only whole levels are
    stored, and each entry of searched is written whole before it is
    read: _candidates and _label raise before a level is stored, never
    inside one, and extremal checks the budget before it counts or
    searches, never between, so a timed-out call leaves a checkpoint."""

    def __init__(self) -> None:
        self.levels: dict[tuple, Level] = {}
        self.searched: dict[tuple, dict[tuple, _Searched]] = {}

    def clear(self) -> None:
        self.levels.clear()
        self.searched.clear()

    def children(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        min_degree: int = 0,
        budget: Budget = _NO_BUDGET,
    ) -> list[Candidate]:
        """The candidates of level (n, δ), δ = min_degree >= 0: the children
        of level (n - 1, max(δ - 1, 0)) with min degree >= δ, computed at
        each call; the graph on 0 vertices has none.  For δ >= 2, when that
        parent level is not stored, they are grown from its unlabelled
        candidates and it is not labelled: each candidate (P, M) of
        children(n - 1, δ - 1) gives an unlabelled parent C = P + v(M),
        which _candidates extends by every mask of _attachable_masks(C, k,
        m, δ), as C is given no generators; the budget is checked once per
        C.  Otherwise the parent level is read labelled (level).

        Soundness of the unlabelled parents.  Every class of level (n, δ)
        has a candidate.  Let G be in it and u a vertex of maximum degree.
        Deleting u lowers every other degree by at most 1, so G - u is in
        level (n - 1, δ - 1), which has a candidate for each of its
        classes (children, _candidates): G - u ≅ C for some unlabelled
        parent C, by some φ.  C + v(φ(N(u))) ≅ G with v ↦ u, so it is
        {P_k, K_m}-free with min degree >= δ and v has maximum degree in
        it: φ(N(u)) passes every test of _attachable_masks(C, k, m, δ).
        Its twin-canonical image, by twin swaps of C, gives an isomorphic
        child and passes too, as the tests are invariant under Aut(C), so
        _attachable_masks returns it.  With no generators, no mask is
        dropped as the image of another, which only automorphisms of C
        would allow.  Several parents may be isomorphic, so a class may
        have several candidates; _label keeps one per code.

        A step with bound 1 always reads its parent level labelled.  It
        needs only the isolated vertices in every mask, so it has almost
        no early exit, and unlabelled parents, not reduced to one per
        class, cost more than labelling them: on 2 cores, a cold level
        (9, 2) of (9,5) took 1.1-1.4 s, and 2.0-2.1 s with the step to
        (8, 1) grown too, which left the next step 28,977 unlabelled
        parents."""
        parent = (forbid_path, forbid_clique, n - 1, min_degree - 1)
        if min_degree >= 2 and parent not in self.levels:
            below = self.children(forbid_path, forbid_clique, n - 1, min_degree - 1, budget)
            parents: Iterable[tuple] = ((_attach(g, mask), ()) for g, mask in below)
        else:
            parents = self.level(forbid_path, forbid_clique, n - 1, min_degree - 1, budget)
        return _candidates(parents, forbid_path, forbid_clique, min_degree, budget)

    def level(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        min_degree: int = 0,
        budget: Budget = _NO_BUDGET,
    ) -> Level:
        """Level (n, δ), δ = max(min_degree, 0): the graphs of the class on
        n vertices with min degree >= δ, labelled from children(n, δ)
        unless it is stored; [] when there are none.  A level below it that
        children skips stays unlabelled.  Once a level with δ = 0 is stored,
        the top order's entries of order n (searched), whose graphs
        extremal no longer builds, are dropped.
        Writes to budget.level_sizes the sizes of the levels of its chain
        (see chain) from level 0 up to the first one that is not stored."""
        delta = max(min_degree, 0)
        if n < 0 or delta > max(n - 1, 0):
            # min degree is at most n - 1, and 0 on the graph on 0 vertices
            return []
        key = (forbid_path, forbid_clique, n, delta)
        if key not in self.levels:
            if n == 0:
                g0 = Graph(0, ())
                self.levels[key] = [(g0, (), graph6_encode(g0))]
            else:
                candidates = self.children(forbid_path, forbid_clique, n, delta, budget)
                self.levels[key] = _label(candidates, budget)
                if delta == 0:
                    # the unlabelled parents of order n; extremal reads level n now
                    self.searched.pop((forbid_path, forbid_clique, n), None)
        sizes = []
        for i in range(n + 1):
            below = self.levels.get((forbid_path, forbid_clique, i, max(delta - n + i, 0)))
            if below is None:
                break
            sizes.append(len(below))
        budget.level_sizes = sizes
        return self.levels[key]

    def chain(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        min_degree: int = 0,
        budget: Budget = _NO_BUDGET,
    ) -> list[Level]:
        """The levels (i, max(δ - n + i, 0)), i = 0, ..., n, δ =
        max(min_degree, 0): the chain whose level n holds the graphs of the
        class on n vertices with min degree >= δ; [] when there are none.
        The levels are read in ascending order (level), so each one that is
        not stored is labelled from its parent level, labelled: a chain has
        no gap, and a level that enumeration skipped is labelled once a
        chain through it is asked for.  Its sizes are written to
        budget.level_sizes."""
        delta = max(min_degree, 0)
        if n < 0 or delta > max(n - 1, 0):
            return []
        return [
            self.level(forbid_path, forbid_clique, i, max(delta - n + i, 0), budget)
            for i in range(n + 1)
        ]

    def connected(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        min_degree: int = 0,
        budget: Budget = _NO_BUDGET,
    ) -> list[Graph]:
        """The connected graphs of level (n, δ), δ = max(min_degree, 0), in
        canonical labels, sorted by code: [g for g in level(n, δ) if
        is_connected(g)], so the graph on 0 vertices at n = 0, and [] when
        δ > max(n - 1, 0).  A stored level, or level 0, is filtered, and the
        budget is checked once per graph.  Over any other level only the
        candidates of children(n, δ) whose child is connected are
        labelled, and the result is not stored, so a later ask labels them
        again.  The components of each parent are computed once.  The
        budget is then checked as in children and once per child labelled.

        Soundness.  v joins the components of P that M meets and no
        other, so P + v(M) is connected iff M meets every component of P.
        Every class of level (n, δ) has a candidate (children, _candidates),
        and every candidate of a class is isomorphic to it, so the
        candidates of a connected class are connected and those of any
        other class are not: the kept candidates are the candidates of the
        connected classes, at least one per class.  _label keeps one
        canonical form per code and sorts by code, so the graphs and their
        order are those of [g for g in level(n, δ) if is_connected(g)]."""
        delta = max(min_degree, 0)
        if n == 0 or (forbid_path, forbid_clique, n, delta) in self.levels:
            out = []
            for g, _gens, _code in self.level(forbid_path, forbid_clique, n, delta, budget):
                budget.check("filters")
                if is_connected(g):
                    out.append(g)
            return out
        if delta > n - 1:
            return []
        kept: list[Candidate] = []
        last, components = None, []
        for g, mask in self.children(forbid_path, forbid_clique, n, delta, budget):
            if g is not last:
                last, components = g, _components(g)
            if all(mask & c for c in components):
                kept.append((g, mask))
        return [cf for cf, _gens, _code in _label(kept, budget)]

    def extremal(
        self,
        forbid_path: Optional[int],
        forbid_clique: Optional[int],
        n: int,
        r: int,
        connected: bool,
        budget: Budget = _NO_BUDGET,
    ) -> list[Graph]:
        """The graphs of the class on n vertices (connected ones only, if
        connected) with the most K_r, in canonical labels, sorted by code.
        Order n is reached from stored graphs through one, two or three
        minimum-degree steps, visited best bound first, and only the
        children with the top score are built and labelled.  The budget is
        checked once per graph bounded and once per graph visited, at
        each step (roots and parents alike), whether or not its entry is
        stored and whether or not it is then skipped as a copy, and once
        per labelled winner.

        Ties.  When r >= m or r >= k, no graph of the class has a K_r:
        K_r holds a K_m, and a P_r, which holds a P_k; at n = 0 the one
        graph has none.  Every class then scores 0 and is extremal, so the
        result is level n (level), or, with connected, its connected graphs
        (connected).  Nothing is scored; the budget is checked as in those
        stages.

        Steps.  Order n takes s steps, s the least of 1, 2 and 3 for which
        level (n - s, 0) is stored, 3 when neither level n - 1 nor level
        n - 2 is, and never more than n (so always one for n = 1).  With
        one step the parents are the graphs of level n - 1.  With s >= 2
        the roots are the graphs D of level n - s, labelled, and the levels
        above it are neither labelled nor grown for them; a graph D visited
        at t >= 2 steps is expanded into the graphs D + v(M), one per mask
        M of _attachable_masks(D, k, m, most=δ(D) + 1), built but not
        labelled, which then go through the visit at t - 1 steps with the
        same best score, down to the parents of one step.  A visited
        parent C is extended by every mask of _attachable_masks(C, k, m,
        most=δ(C) + 1), δ the min degree, as the new vertex is attached as
        a vertex of minimum degree at each step; no generators are used,
        so no mask is dropped as the image of another.

        The store.  δ(g), N_j(g), the masks of g and its degree key are
        read from searched[(k, m, g.n)][g.rows] (_Searched) and computed
        only when they are missing, then written there: a later call with
        another r or connected, or the same call again, counts, searches
        and keys no graph twice.  All four are functions of (k, m, g.rows)
        alone: extremal uses no generators, and connected only filters the
        masks after they are read.  So the bounds, the order of the visit,
        where it stops, the winners and their labels are those of
        computing them afresh.  A root's parents are built again from its stored masks,
        and their entries are found by their rows.

        Soundness of one step.  Let G be a graph of the class on n
        vertices and u a vertex of minimum degree.  G - u is in the class,
        which is closed under vertex deletion.  Let C be a parent
        isomorphic to it, by some φ; with one step the parents are a
        level, which holds every class of order n - 1.  Every x of G - u
        has deg_G(x) <= deg_{G-u}(x) + 1 and deg_G(x) >= deg_G(u), so
        M = φ(N(u)) has at most δ(C) + 1 vertices, and C + v(M) ≅ G with
        v ↦ u, so M is attachable.  Its twin-canonical image, by twin swaps
        of C, has the same size and gives an isomorphic child, so the
        masks of _attachable_masks reach G.  Every child is in the class.
        A K_r of C + v(M) either avoids v, and is a K_r of C, or holds v
        and a K_{r-1} inside N(v) = M, so the score N_r(C) + N_{r-1}(C[M])
        is exactly N_r of the child.  v joins the components of C that M
        meets and no other, so C + v(M) is connected iff M meets every
        component of C; if G is connected, M meets every component of
        G - u.  Connectivity is decided at this last step only.  The graph
        on 0 vertices has no parent and no K_r.

        Soundness of s steps.  Let G_0 = G and, for j = 1, ..., s, G_j =
        G_{j-1} - u_j, u_j a vertex of minimum degree in G_{j-1}.  Each
        deletion stays in the class, so G_s is isomorphic to a root.  The
        argument above, applied to G_{s-1} and G_s, gives a mask of that
        root with at most δ(G_s) + 1 vertices whose child is isomorphic to
        G_{s-1}; applied again to G_{j-1} and the graph so reached for
        G_j, for j = s - 1 down to 1, it gives a mask of that graph whose
        child is isomorphic to G_{j-1}, and G_0 = G.  So at every depth
        every class on n vertices has a child, and the maximum over the
        children is the maximum over the classes.  The winners' children
        are exactly the extremal classes, and labelling them gives each
        once, in the canonical form the level would hold.

        Branch and bound.  C[M] is a subgraph of C on at most δ(C) + 1
        vertices, so N_{r-1}(C[M]) <= min(N_{r-1}(C), C(δ(C) + 1, r - 1)),
        and no child of C scores more than its one-step bound, N_r(C) plus
        that minimum; the connected children are some of them, so the
        bound holds for them too.  A graph C = D + v(M) that a graph D
        expands into has |M| <= δ(D) + 1, so N_r(C) <= N_r(D) +
        min(N_{r-1}(D), C(δ(D) + 1, r - 1)), by the same argument, and
        δ(C) <= |M| <= δ(D) + 1, as v has degree |M|: the min degree grows
        by at most 1 per step.  So the vertex added at the j-th step from
        D has at most δ(D) + j neighbours and lies in at most
        C(δ(D) + j, r - 1) of the K_r, and no graph that D reaches in s
        steps scores more than D's s-step bound, N_r(D) + min(N_{r-1}(D),
        C(δ(D) + 1, r - 1)) + Σ_{j=2..s} C(δ(D) + j, r - 1), which is at
        least the (s - 1)-step bound of each graph D expands into.  At
        each step the graphs are visited by descending bound, in a stable
        order, and the visit stops at the first bound strictly below the
        best score so far: that graph and every later one have no child
        that reaches the best, which only grows, so none has a winner.  A
        graph whose bound equals the best is still visited, as it may have
        a child that ties, and every tied class is reported.  So the winners are those
        of scoring every child, and as each class is labelled once, their
        order does not matter.

        One visit per key below the roots.  The graphs visited at t < s
        steps are built unlabelled and repeat classes.  Each is given its
        degree key (_degree_key), after its budget check, and is skipped
        when a graph with an equal key was visited at t steps earlier in
        the same call; the keys of different steps differ in length.  The
        key is the graph relabelled, so the skipped graph G' and the
        visited one G are isomorphic.  δ, N_r and N_{r-1} are isomorphism
        invariants, so they have equal bounds.  G was visited against a
        best score no higher, as the best only grows, and its visit ended
        before G' was reached, as both have the same order.  For every
        child of G' its subtree holds an isomorphic child, with an equal
        bound at every later step (an isomorphism maps an attachable mask
        of G' to one of G of the same size, and the masks of G reach its
        twin-canonical image), and connectivity is invariant.  So every
        winning class that G' could give, G already gave: its children
        were scored, or passed by, against a best no higher.  By
        induction over the order of the visits this holds for every
        graph skipped in G's subtree too.  The sort and the stop rule
        are unchanged, so the winners are unchanged.  The key is not
        complete: isomorphic graphs with different keys are both
        visited, as without the skip, which costs only time.  The roots
        are a labelled level, one graph per class, and get no key.  The
        keys a call has visited last for that call only, so a copy never
        relies on a visit made for another r or connected.

        Depth.  Three steps is the most, and the depth follows only from
        which levels are stored.  Cold, in a fresh process on 2 cores
        (median of three), three steps against two took 1.13 -> 0.56 s at
        (9,5), n = 10, r = 2, 0.31 -> 0.11 s at (8,5), n = 10, r = 3, and
        0.093 -> 0.052 s at (7,4), n = 10, r = 2, before the degree key;
        with it, 0.43 s, 0.11 s and 0.046 s (median of ten).  At (9,5),
        n = 9, r = 2, three steps lost without the key (0.136 -> 0.174 s),
        as the unlabelled graphs of order 7 repeat classes: 8,707 graphs
        were bounded and 2,208 of order 8 searched.  With it, 3,986 are
        bounded and 434 searched, and three steps take 0.074 s against
        0.127 s from a labelled level 7 (median of ten).  Four and five
        steps lost at (9,5), n = 10, r = 2 without the key (1.75 and 4.9 s
        against 0.56 s at three, one run each).  With it, four steps, and
        verify labelling level N - 4, still made a pass of the benchmark's
        extremal_sweep slower: medians of 38.3 and 39.0 ms against 34.9
        and 35.7 ms at three steps."""
        k, m = forbid_path, forbid_clique
        if n == 0 or (m is not None and r >= m) or (k is not None and r >= k):
            # no graph of order n in the class has a K_r, so every class ties at 0
            if connected:
                return self.connected(k, m, n, 0, budget)
            return [g for g, _gens, _code in self.level(k, m, n, budget=budget)]
        depth = next((s for s in (1, 2) if (k, m, n - s, 0) in self.levels), min(3, n))
        best, top = -1, []
        seen = set()  # the keys visited below the roots; a key's length is its order

        def visit(graphs: Iterable[Graph], steps: int) -> None:
            nonlocal best, top
            searched = self.searched.setdefault((k, m, n - steps), {})
            ranked = []  # (bound, N_r(g), g's entry, g)
            for g in graphs:
                budget.check("extremal")
                entry = searched.get(g.rows)
                if entry is None:
                    entry = searched[g.rows] = _Searched(g.min_degree())
                base, low = entry.count(g, r), entry.low
                bound = base + min(entry.count(g, r - 1), comb(low + 1, r - 1))
                bound += sum(comb(low + j, r - 1) for j in range(2, steps + 1))
                ranked.append((bound, base, entry, g))
            ranked.sort(key=lambda item: item[0], reverse=True)  # stable
            for bound, base, entry, g in ranked:
                if bound < best:
                    break
                budget.check("extremal")
                if steps < depth:
                    if entry.key is None:
                        entry.key = _degree_key(g.rows)
                    if entry.key in seen:
                        continue  # an isomorphic copy was visited at this step
                    seen.add(entry.key)
                if entry.masks is None:
                    entry.masks = _attachable_masks(g, k, m, most=entry.low + 1)
                masks = entry.masks
                if steps >= 2:
                    visit((_attach(g, mask) for mask in masks), steps - 1)
                    continue
                components = _components(g) if connected else []
                for mask in masks:
                    if not all(mask & c for c in components):
                        continue
                    score = base + count_cliques_in(g, mask, r - 1)
                    if score > best:
                        best, top = score, []
                    if score == best:
                        top.append((g, mask))

        visit((g for g, _gens, _code in self.level(k, m, n - depth, budget=budget)), depth)
        return [cf for cf, _gens, _code in _label(top, budget, "extremal")]


_ENUMERATOR = Enumerator()


def clear_cache() -> None:
    """Empty the enumerator's levels and the top order's store of searched
    graphs, and the classifier's table of candidates."""
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
    extremal_r, only those with the most K_r (Enumerator.extremal); with
    connected_only, only the connected ones (Enumerator.connected).

    The time budget (Budget) starts with the call; beside the checks of
    the enumeration, it is checked once per graph in the final filters."""
    budget = Budget(config.time_budget_s)
    k, m, n, delta = config.forbid_path, config.forbid_clique, config.n, config.min_degree
    if config.extremal_r is not None:
        graphs = _ENUMERATOR.extremal(k, m, n, config.extremal_r, config.connected_only, budget)
    elif config.connected_only:
        graphs = _ENUMERATOR.connected(k, m, n, delta, budget)
    else:
        graphs = [g for g, _gens, _code in _ENUMERATOR.level(k, m, n, delta, budget)]
    if not config.edge_maximal:
        return graphs
    out = []
    for g in graphs:
        budget.check("filters")
        if _edge_maximal(g, k, m):
            out.append(g)
    return out


@dataclass(frozen=True)
class ExtremalResult:
    """Exact maximum K_r count with every extremal class captured.

    stats holds one entry, extremal: the number of extremal classes."""

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
        low = [i for i in range(sub.n) if sub.degree(i) < delta]
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
    should be exact) is the failure state.  The time budget (Budget) is
    one for the whole sweep: each n gets the time left, and it is also
    checked before each n's check of the predicted family.  The range is
    checked before anything is enumerated.  Then level N - 3 is labelled,
    N the largest n, so N - 2, N - 1 and N take one, two and three
    minimum-degree steps from it (Enumerator.extremal), every smaller n
    reads a labelled level n - 1, and neither level N - 2 nor N - 1 is
    labelled; the runtime_ms of the first n's row includes that step, so
    the rows add up to the sweep.
    """
    if scope not in ("connected", "all"):
        raise ParameterError("scope must be 'connected' or 'all'")
    k, m, r = params.k, params.m, params.r
    for n in n_range:
        if n < params.delta + 2:
            raise ParameterError(f"need n >= delta_k + 2 = {params.delta + 2}")
        EnumerationConfig(n=n, forbid_path=k, forbid_clique=m)  # CapExceeded above the cap
    budget = Budget(time_budget_s)
    t0 = time.monotonic()
    if n_range:
        _ENUMERATOR.level(k, m, max(max(n_range) - 3, 0), budget=budget)
    case = threshold_case(k, m, r)
    rows = []
    for n in n_range:
        if scope == "connected":
            predicted, exact = h_value(n, m, k, r), True
        else:
            predicted, exact = predicted_ex(n, k, m, r)
        result = ex_oracle(
            n, k, m, r, connected=(scope == "connected"),
            time_budget_s=budget.left(),
        )
        if result.value == predicted:
            status = "EQUAL"
        elif result.value > predicted:
            status = "ORACLE_GREATER"
        elif not exact:
            status = "BOUND_RESPECTED"
        else:
            status = "MISMATCH"
        budget.check("family", n=n, rows=len(rows))
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
        t0 = time.monotonic()
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
    counterexample and is reported by code.  The time budget (Budget) is
    one for the whole sweep: each n gets the time left, and it is also
    checked once per classified graph.  n asks for min degree
    >= max(delta_k - (N - n), 0), N the largest n within the enumeration
    cap: every such level is in the chain of (N, delta_k), so each level
    is labelled once, and a level of that chain that no n reads is
    skipped (Enumerator.children).  The levels of the n below N are read
    labelled first, in ascending order, with the sweep's budget, so that
    each step of the chain above one of them reads it labelled; N then
    labels only its connected candidates and stores no level
    (Enumerator.connected).  A sweep of one n labels nothing more.  n
    skips the graphs below delta_k, which leaves, in order, those that
    min degree delta_k gives (canonical forms are unique and levels are
    sorted by code).  n_range is reported as its least and largest n.
    """
    # read from detect at call time, where the perfbench tracer binds it
    from .detect import classify_structure

    TheoremParams(k, m, 2)
    budget = Budget(time_budget_s)
    dk = delta_k(k)
    last = min(max(n_range, default=0), enumeration_cap(k, m))
    for n in sorted(n_range):
        # labelled, so that the step above each reads it and only last
        # labels its connected graphs alone
        if k <= n < last:
            _ENUMERATOR.level(k, m, n, max(dk - (last - n), 0), budget)
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
            min_degree=max(dk - (last - n), 0),
            time_budget_s=budget.left(),
        )
        for g in enumerate_graphs(config):
            if g.min_degree() < dk:
                continue
            budget.check("classify", n=n, classified=total)
            total += 1
            outcome = classify_structure(g, k, m)
            tag = outcome.class_tag.value
            histogram[tag] = histogram.get(tag, 0) + 1
            if tag == "Unclassified":
                unclassified.append(graph6_encode(g))
    return {
        "k": k,
        "m": m,
        "n_range": [min(n_range), max(n_range)] if n_range else [n_range.start, n_range.stop - 1],
        "total": total,
        "histogram": dict(sorted(histogram.items())),
        "unclassified": sorted(unclassified),
        "ok": not unclassified,
    }
