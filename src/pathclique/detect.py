"""Exact subgraph and structure detection over bitmask adjacency rows.

One depth-first search over the states (vertex set, end vertex),
_path_dfs, answers every path question.  has_path runs it with twin
pruning and one memo of searched states for all roots, so it stays fast
on large graphs; is_free asks has_path, and longest_path_order keeps the
memo while the target grows.  rooted_path_sets runs it from one vertex
with no pruning and returns the memo: the paths from that vertex by
their vertex sets and end vertices.  Enumeration asks it of a parent
graph to decide attachment masks (oracle._attachable_masks), and the
strong dominating path and cycle are read from its levels, since whether
a path dominates depends only on its vertex set.

count_cliques and count_cliques_in are one clique recursion.  On large
inputs it runs over twin classes (graphs.twin_classes) with weights: a
vertex outside a class sees all of it or none of it, so a clique takes one
vertex of an open (independent) class in s ways and t vertices of a
closed (complete) class in C(s, t) ways.  Turan graphs and H_n(m, k) have
a few twin classes, so their counts take one step per clique of classes,
not per clique; the soundness argument is in count_cliques_in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

from .canon import canonical
from .constructions import g1, g2, g3, g4, g5
from .formulas import delta_k
from .graphs import Graph, copies, join, lower_twins, primitive, twin_classes


def count_cliques(g: Graph, r: int) -> int:
    """Number of K_r subgraphs; N_0 = 1, N_1 = n, N_2 = e(G)."""
    return count_cliques_in(g, g.vertex_mask(), r)


# count_cliques_in finds twin classes only when the clique recursion could
# take more than this many steps per vertex of g.  Finding them costs 2-3
# steps per vertex; the margin is for graphs sparser than complete, whose
# recursion takes far fewer steps than its worst case, C(|mask|, r - 1).
_TWIN_PASS_STEPS = 8


def count_cliques_in(g: Graph, mask: int, r: int) -> int:
    """Number of K_r subgraphs inside the vertices of mask.

    N_0 = 1, N_1 = |mask| and N_2 = the edges inside mask are closed forms,
    the base of the recursion (_cliques).  For r >= 3 the recursion runs
    over the twin classes of g intersected with mask, one weighted
    representative per class, when it could take more steps on mask,
    C(|mask|, r - 1) at worst, than _TWIN_PASS_STEPS per vertex of g;
    otherwise it runs over the vertices of mask, each of weight 1.

    Soundness.  Twins (graphs.lower_twins) form an equivalence relation,
    whose classes graphs.twin_classes lists, and two vertices of one
    class of g are still twins in g[mask], so the classes of g
    intersected with mask partition mask into twin classes of g[mask]
    (maybe finer than its own, which only costs speed).  A vertex
    outside a class is adjacent to all of the class or to none of it,
    since any two members have the same neighbours outside the pair.  A
    class is open (pairwise non-adjacent) or closed (pairwise adjacent),
    so a clique holds at most one vertex of an open class and any t of a
    closed one.  A clique K of g[mask] therefore meets a set of classes
    whose representatives form a clique Q, takes t_c >= 1 vertices of each
    class c of Q, and every such choice is a clique.  With w_c(1) = s_c
    and w_c(t) = 0 for t > 1 for an open class of size s_c, and w_c(t) =
    C(s_c, t) for a closed one (a singleton has w(1) = 1 either way),
    N_r = sum over cliques Q of the representatives, and over t_c >= 1
    with sum t_c = r, of prod_c w_c(t_c).  The recursion meets each such
    Q once, its representatives in ascending order."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r <= 2 or comb(mask.bit_count(), r - 1) <= _TWIN_PASS_STEPS * g.n:
        return _cliques(g.rows, mask, 0, {}, r)
    return _cliques(g.rows, *_twin_weights(g, mask), r)


def _twin_weights(g: Graph, mask: int) -> tuple[int, int, dict[int, tuple[int, ...]]]:
    """(reps, heavy, weights) for the twin classes of g
    (graphs.twin_classes) intersected with mask: reps holds the lowest
    vertex of each class, heavy those of the classes with two or more
    vertices, and weights[v] = (w(1), ..., w(t)) for v in heavy, up to
    the largest t with w(t) > 0.  A heavy class is closed iff its
    representative is adjacent to the rest of it."""
    rows = g.rows
    reps, heavy, weights = mask, 0, {}
    for members in twin_classes(lower_twins(g)).values():
        sub = members & mask
        rep = sub & -sub
        if sub == rep:
            continue  # empty, or a single vertex of weight 1
        reps ^= sub ^ rep
        heavy |= rep
        v, s = rep.bit_length() - 1, sub.bit_count()
        weights[v] = tuple(comb(s, t) for t in range(1, s + 1)) if rows[v] & sub else (s,)
    return reps, heavy, weights


def _weigh(cand: int, heavy: int, weights: dict[int, tuple[int, ...]]) -> int:
    """The vertices of g that the representatives in cand stand for."""
    total = cand.bit_count()
    cand &= heavy
    while cand:
        low = cand & -cand
        cand ^= low
        total += weights[low.bit_length() - 1][0] - 1
    return total


def _cliques(
    rows: tuple[int, ...],
    cand: int,
    heavy: int,
    weights: dict[int, tuple[int, ...]],
    need: int,
) -> int:
    """The weighted number of need-cliques inside cand (count_cliques_in):
    the representative v of each class is taken in ascending order with t
    of its vertices, for each t with weight w_v(t), and the rest of the
    clique is counted among its later neighbours.  need = 2 is the closed
    form: each v pairs inside its own class and with the weight of its
    later neighbours.  A representative outside heavy has the weights (1,),
    which is the whole work when heavy is 0."""
    total = 0
    if need == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            later = rows[v] & cand
            if (later | low) & heavy:
                w = weights.get(v, (1,))
                pairs = w[1] if len(w) > 1 else 0
                total += pairs + w[0] * _weigh(later, heavy, weights)
            else:
                total += later.bit_count()
        return total
    if need < 2:
        return _weigh(cand, heavy, weights) if need else 1
    while cand:
        if cand.bit_count() < need and not cand & heavy:
            break
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        later = rows[v] & cand
        if low & heavy:
            for t, w in enumerate(weights[v][:need], 1):
                total += w * _cliques(rows, later, heavy, weights, need - t)
        elif later & heavy or later.bit_count() >= need - 1:
            total += _cliques(rows, later, heavy, weights, need - 1)
    return total


def has_clique_in(g: Graph, mask: int, m: int) -> bool:
    """True iff the vertices of mask span a K_m."""
    if m <= 0:
        return True
    if m == 1:
        return mask != 0
    rows = g.rows

    def rec(cand: int, need: int) -> bool:
        if need == 1:
            return cand != 0
        while cand:
            if cand.bit_count() < need:
                return False
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if rec(rows[v] & cand, need - 1):
                return True
        return False

    return rec(mask, m)


def has_clique(g: Graph, m: int) -> bool:
    return has_clique_in(g, (1 << g.n) - 1, m)


def _reachable(rows: tuple[int, ...], seed: int) -> int:
    seen = frontier = seed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= rows[v]
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _path_dfs(
    rows: tuple[int, ...],
    lower: list[int],
    done: list[dict[int, int]],
    k: int,
    v: int,
    visited: int,
    size: int,
) -> int:
    """The order of a path on k or more vertices that extends the path on
    size vertices with vertex set visited and end vertex v, found depth
    first and extended greedily (0: none).  done, len(rows) + 1 dicts,
    maps each vertex set on j + 1 vertices, in done[j], to the ends of its
    states searched in full without success; none of them is entered
    again.
    A state is marked only after its full search, so it cannot reach a
    path on k vertices, nor on more: done can serve several roots and a
    growing k.  A next vertex u is skipped when lower[u] holds an
    unvisited vertex (has_path's twin pruning; all zero: none is)."""
    if size >= k:
        while ext := rows[v] & ~visited:
            v = (ext & -ext).bit_length() - 1
            visited |= 1 << v
            size += 1
        return size
    ext = rows[v] & ~visited
    later = done[size]
    while ext:
        x = ext & -ext
        ext ^= x
        u = x.bit_length() - 1
        if lower[u] & ~visited or later.get(visited | x, 0) & x:
            continue
        if found := _path_dfs(rows, lower, done, k, u, visited | x, size + 1):
            return found
    ends = done[size - 1]
    ends[visited] = ends.get(visited, 0) | 1 << v
    return 0


def rooted_path_sets(g: Graph, u: int, k: int) -> Optional[list[dict[int, int]]]:
    """The paths in g that start at u: out[j] maps the vertex set (bitmask)
    of each path on j + 1 vertices to the bitmask of its end vertices, the
    states that _path_dfs with no pruning marks, each searched once however
    many paths reach it.  None as soon as one path has k - 1 vertices (so
    None for k <= 2); k = g.n + 2 never stops early."""
    done: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    if _path_dfs(g.rows, [0] * g.n, done, k - 1, u, 1 << u, 1):
        return None
    while not done[-1]:
        done.pop()
    return done


def has_path(g: Graph, k: int) -> bool:
    """True iff g contains a path on k vertices.

    _path_dfs from the lowest vertex of each twin class, with one memo
    for all roots, since a state's verdict does not depend on the root.

    Twin pruning (twins as in graphs.lower_twins): of each twin class only
    the lowest unvisited member is tried, as a start vertex and as the
    next vertex at every node.  Soundness: swapping two unvisited twins
    u < w is an automorphism that fixes every visited vertex, so it fixes
    the path so far and its end vertex, and it maps the paths below
    "extend by w" onto the paths below "extend by u".  u is adjacent to
    the end vertex whenever w is, so skipping w loses no path on k
    vertices and marks no state as failed that could still reach one.
    """
    if k <= 0:
        return True
    if k > g.n:
        return False
    rows, lower = g.rows, lower_twins(g)
    done: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    return any(
        not lower[s] and _path_dfs(rows, lower, done, k, s, 1 << s, 1) for s in range(g.n)
    )


def longest_path_order(g: Graph) -> int:
    """Order of a longest path (0 for the graph on 0 vertices): has_path's
    search from each root in turn asks for one vertex more than the
    longest path found so far until the answer is no, with one memo for
    every root and target, since the target only grows."""
    rows, lower = g.rows, lower_twins(g)
    done: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    k = 0
    for s in range(g.n):
        if lower[s]:
            continue
        while k < g.n and (found := _path_dfs(rows, lower, done, k + 1, s, 1 << s, 1)):
            k = found
    return k


def is_free(g: Graph, k: int, m: int) -> bool:
    """{P_k, K_m}-free."""
    return not has_clique(g, m) and not has_path(g, k)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _reachable(g.rows, 1) == g.vertex_mask()


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs or bridges) and cut vertices.

    Isolated vertices belong to no block.  An end block contains exactly
    one cut vertex.
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    end_blocks: tuple[int, ...]


def blocks(g: Graph) -> BlockDecomposition:
    n = g.n
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    timer = [1]
    estack: list[tuple[int, int]] = []
    found: list[frozenset[int]] = []
    cut: set[int] = set()

    def dfs(u: int) -> None:
        disc[u] = low[u] = timer[0]
        timer[0] += 1
        children = 0
        for v in g.neighbors(u):
            if not disc[v]:
                children += 1
                parent[v] = u
                estack.append((u, v))
                dfs(v)
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    if parent[u] != -1 or children > 1:
                        cut.add(u)
                    comp: set[int] = set()
                    while True:
                        e = estack.pop()
                        comp.add(e[0])
                        comp.add(e[1])
                        if e == (u, v):
                            break
                    found.append(frozenset(comp))
            elif v != parent[u] and disc[v] < disc[u]:
                estack.append((u, v))
                low[u] = min(low[u], disc[v])

    for root in range(n):
        if not disc[root]:
            dfs(root)
    end = tuple(i for i, b in enumerate(found) if len(b & cut) == 1)
    return BlockDecomposition(tuple(found), frozenset(cut), end)


def is_2connected(g: Graph) -> bool:
    return g.n >= 3 and is_connected(g) and not blocks(g).cut_vertices


def sigma3(g: Graph) -> Optional[int]:
    """Max degree sum over independent triples; None if no such triple."""
    degs = g.degrees()
    best = None
    for u, v, w in combinations(range(g.n), 3):
        if g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w):
            continue
        s = degs[u] + degs[v] + degs[w]
        if best is None or s > best:
            best = s
    return best


def _dominates(g: Graph, mask: int) -> bool:
    outside = g.vertex_mask() & ~mask
    while outside:
        v = (outside & -outside).bit_length() - 1
        outside &= outside - 1
        if g.rows[v] & ~mask:
            return False
    return True


def _read_path(
    g: Graph, levels: list[dict[int, int]], mask: int, end: int
) -> tuple[int, ...]:
    """A path with vertex set mask from the root of the rooted_path_sets
    levels to end, end in levels[|mask| - 1][mask]: each end was reached
    from the set without it, through an end next to it."""
    seq = [end]
    for level in reversed(levels[: mask.bit_count() - 1]):
        mask ^= 1 << end
        prev = level[mask] & g.rows[end]
        end = (prev & -prev).bit_length() - 1
        seq.append(end)
    return tuple(reversed(seq))


def strong_dominating_path(g: Graph) -> Optional[tuple[int, ...]]:
    """Longest path with every off-path vertex's neighbours on the path.

    Whether a path dominates depends only on its vertex set, so the sets
    of the rooted searches from every start vertex are scanned from the
    largest down."""
    best: Optional[tuple[int, ...]] = None
    for s in range(g.n):
        levels = rooted_path_sets(g, s, g.n + 2)
        for level in reversed(levels[len(best or ()) :]):
            mask = next((mask for mask in level if _dominates(g, mask)), 0)
            if mask:
                best = _read_path(g, levels, mask, level[mask].bit_length() - 1)
                break
    return best


def strong_dominating_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """Some cycle with every off-cycle vertex's neighbours on the cycle:
    a path from s on at least 3 vertices that ends next to s and whose
    vertex set dominates, found in the rooted search from s."""
    for s in range(g.n):
        levels = rooted_path_sets(g, s, g.n + 2)
        for level in levels[2:]:
            for mask, ends in level.items():
                ends &= g.rows[s]
                if ends and _dominates(g, mask):
                    return _read_path(g, levels, mask, ends.bit_length() - 1)
    return None


class StructureClass(Enum):
    CLASS1 = "Class1"
    CLASS2_G1 = "Class2-G1"
    CLASS2_G2 = "Class2-G2"
    CLASS2_G3 = "Class2-G3"
    CLASS3_G4 = "Class3-G4"
    CLASS3_G5 = "Class3-G5"
    CLASS4_I2 = "Class4-I2"
    CLASS4_K2 = "Class4-K2"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class ClassificationOutcome:
    class_tag: StructureClass
    witness: object = None


def _class1_witness(
    g: Graph, size: int, m: int, edge_limit: int
) -> Optional[frozenset[int]]:
    """The first set S of size vertices, in itertools.combinations order,
    that spans no K_{m-1} and leaves at most edge_limit edges outside S;
    None if there is none.

    Branch and bound over the vertices in ascending order that puts each
    vertex in S before it leaves it out, so it meets the sets in
    combinations (lexicographic) order.  The edges spanned by the vertices
    left out only grow down the tree, so a node whose left-out vertices
    span more than edge_limit edges is cut, and no set below it could
    pass; nor is a node kept that has too few vertices left to fill S."""
    n, rows = g.n, g.rows

    def search(v: int, smask: int, taken: int, out: int, edges: int) -> int:
        if v == n:
            if taken < size or has_clique_in(g, smask, m - 1):
                return -1
            return smask
        if taken < size:
            found = search(v + 1, smask | 1 << v, taken + 1, out, edges)
            if found >= 0:
                return found
        if n - v > size - taken:
            edges += (rows[v] & out).bit_count()
            if edges <= edge_limit:
                return search(v + 1, smask, taken, out | 1 << v, edges)
        return -1

    found = search(0, 0, 0, 0, 0)
    if found < 0:
        return None
    return frozenset(v for v in range(n) if found >> v & 1)


@lru_cache(maxsize=128)
def class_table(
    n: int, k: int, m: int, late: bool
) -> dict[bytes, tuple[StructureClass, dict]]:
    """Canonical code -> (class, witness) for the Class 2-4 candidates on n
    vertices, in the precedence order of classify_structure: G1, then G2 by
    ascending n1, when late is False; G3 by block and attach vertex, G4
    then G5 for each ascending n1, I2, K2, when late is True.  A code
    shared by several candidates keeps the first, as a chain of tests in
    that order would.

    classify_structure looks in the late table only when the early one
    misses.  Every order that admits G2 admits G3 too, and the G3 blocks
    are all K_m-free graphs on delta_k + 2 vertices, which is costly (or
    over the enumeration cap) for large k; so a G1 or G2 input never
    enumerates them.  The codes depend only on (n, k, m), so each table is
    built once; oracle.clear_cache empties them."""
    dk = delta_k(k)
    table: dict[bytes, tuple[StructureClass, dict]] = {}

    def add(cand: Graph, tag: StructureClass, witness: dict) -> None:
        table.setdefault(canonical(cand), (tag, witness))

    if not late:
        if m >= dk + 2 and (n - 1) % dk == 0 and (n - 1) // dk >= 1:
            add(g1(n, k), StructureClass.CLASS2_G1, {"n": n, "k": k})
        if m >= dk + 2 and k % 2 == 1:
            for n1 in range(1 + dk, n - dk, dk):
                n2 = n - n1
                if (n2 - 1) % dk == 0 and (n2 - 1) // dk >= 1:
                    witness = {"n1": n1, "n2": n2, "k": k}
                    add(g2(n1, n2, k), StructureClass.CLASS2_G2, witness)
        return table

    rest = n - dk - 2
    if m >= dk + 2 and k % 2 == 1 and rest >= dk and rest % dk == 0:
        from .oracle import g3_block_family, valid_attach_vertices

        for block in g3_block_family(k, m):
            witness = {"n": n, "k": k, "block": canonical(block)}
            for attach in valid_attach_vertices(block, dk):
                cand = g3(n, k, block, attach)
                if cand.min_degree() >= dk:
                    add(cand, StructureClass.CLASS2_G3, witness)

    if k == 7 and m >= 4:
        for n1 in range(3, n - 2, 2):
            n2 = n + 1 - n1
            if n2 >= 4:
                witness = {"n1": n1, "n2": n2}
                add(g4(n1, n2), StructureClass.CLASS3_G4, witness)
                add(g5(n1, n2), StructureClass.CLASS3_G5, witness)

    if k == 9 and n >= 4 and n % 2 == 0:
        matching = copies((n - 2) // 2, primitive("complete", 2))
        if m >= 4:
            i2 = join(primitive("empty", 2), matching)
            add(i2, StructureClass.CLASS4_I2, {"n": n})
        if m >= 5:
            k2 = join(primitive("complete", 2), matching)
            add(k2, StructureClass.CLASS4_K2, {"n": n})
    return table


def classify_structure(g: Graph, k: int, m: int) -> ClassificationOutcome:
    """Assign a connected {P_k,K_m}-free graph with min degree >= delta_k
    to its structural class, trying classes in the fixed order 1..4.

    Class 1 is decided by a witness set S of delta_k vertices whose
    induced subgraph is K_{m-1}-free and whose removal leaves at most one
    edge (none when k is even); this is equivalent to the subgraph-of-a-
    join formulation.  Classes 2-4 are decided by looking the canonical
    code of g up in class_table(n, k, m, False) (G1, G2) and, if it is not
    there, in class_table(n, k, m, True) (G3 onward).  Tables are built on
    first use, so a Class 1 input builds none and a G1 or G2 input never
    builds the late one.  The witness is a fresh dict on every call.
    """
    dk = delta_k(k)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not is_free(g, k, m):
        raise ValueError("graph must be {P_k, K_m}-free")
    if g.min_degree() < dk:
        raise ValueError(f"minimum degree must be at least delta_k = {dk}")
    if g.n < k:
        raise ValueError("need |G| >= k")

    n = g.n
    witness = _class1_witness(g, dk, m, 1 if k % 2 == 1 else 0)
    if witness is not None:
        return ClassificationOutcome(StructureClass.CLASS1, witness)

    code = canonical(g)
    for late in (False, True):
        found = class_table(n, k, m, late).get(code)
        if found is not None:
            tag, witness = found
            return ClassificationOutcome(tag, dict(witness))
    return ClassificationOutcome(StructureClass.UNCLASSIFIED, None)
