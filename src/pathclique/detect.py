"""Exact subgraph and structure detection over bitmask adjacency rows.

Two path searches serve different questions.  has_path answers "is there
a path on k vertices" on a whole graph by depth-first search, with twin
pruning, a reachability bound and a memo of failed states, so it stays
fast on large graphs; is_free and longest_path_order ask it.
rooted_path_sets lists the paths from one start vertex by their vertex
sets and end vertices.  Enumeration asks it of a parent graph to decide
attachment masks (oracle._attachable_masks), and the strong dominating
path and cycle are read from its levels, since whether a path dominates
depends only on its vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .canon import canonical
from .constructions import g1, g2, g3, g4, g5
from .formulas import delta_k
from .graphs import Graph, copies, join, lower_twins, primitive


def count_cliques(g: Graph, r: int) -> int:
    """Number of K_r subgraphs; N_0 = 1, N_1 = n, N_2 = e(G)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1
    if r == 1:
        return g.n
    rows = g.rows
    total = 0

    def rec(cand: int, need: int) -> None:
        nonlocal total
        if need == 1:
            total += cand.bit_count()
            return
        while cand:
            if cand.bit_count() < need:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            rec(rows[v] & cand, need - 1)

    rec((1 << g.n) - 1, r)
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


def _reachable(rows: tuple[int, ...], seed: int, banned: int) -> int:
    seen = seed & ~banned
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= rows[v]
        nxt &= ~seen & ~banned
        seen |= nxt
        frontier = nxt
    return seen


def rooted_path_sets(g: Graph, u: int, k: int) -> Optional[list[dict[int, int]]]:
    """The paths in g that start at u, by the levels of a breadth-first
    search over the states (vertex set, end vertex): out[j] maps the
    vertex set (bitmask) of each path on j + 1 vertices to the bitmask of
    its end vertices, so every state is extended once, however many paths
    reach it.  None as soon as one path has k - 1 vertices (so None for
    k <= 2); k = g.n + 2 never stops early."""
    rows = g.rows
    level = {1 << u: 1 << u}
    out: list[dict[int, int]] = []
    while level:
        if len(out) + 1 >= k - 1:
            return None
        out.append(level)
        nxt: dict[int, int] = {}
        for mask, ends in level.items():
            reach = 0
            while ends:
                e = ends & -ends
                ends ^= e
                reach |= rows[e.bit_length() - 1]
            reach &= ~mask
            while reach:
                x = reach & -reach
                reach ^= x
                nxt[mask | x] = nxt.get(mask | x, 0) | x
        level = nxt
    return out


def has_path(g: Graph, k: int) -> bool:
    """True iff g contains a path on k vertices.

    Depth-first search from every start vertex.  A next vertex u is
    skipped when the path so far plus the region reachable from u off the
    path has fewer than k vertices, and a state (visited set, end vertex)
    that failed once is not searched again, since the target is fixed.

    Twin pruning (twins as in graphs.lower_twins): of each twin class only
    the lowest unvisited member is tried, as a start vertex and as the
    next vertex at every node.  Soundness: swapping two unvisited twins
    u < w is an automorphism that fixes every visited vertex, so it fixes
    the path so far, its end vertex and the reach bound, and it maps the
    paths below "extend by w" onto the paths below "extend by u".  u is
    adjacent to the end vertex whenever w is, so skipping w loses no path
    on k vertices and marks no state as failed that could still reach one.
    """
    n, rows = g.n, g.rows
    if k <= 0:
        return True
    if k > n:
        return False
    lower = lower_twins(g)
    failed: set[tuple[int, int]] = set()

    def dfs(v: int, visited: int, length: int) -> bool:
        if length >= k:
            return True
        if (visited, v) in failed:
            return False
        ext = rows[v] & ~visited
        while ext:
            u = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            if lower[u] & ~visited:
                continue
            if length + _reachable(rows, 1 << u, visited).bit_count() < k:
                continue
            if dfs(u, visited | (1 << u), length + 1):
                return True
        failed.add((visited, v))
        return False

    return any(not lower[s] and dfs(s, 1 << s, 1) for s in range(n))


def longest_path_order(g: Graph) -> int:
    """Order of a longest path (0 for the graph on 0 vertices): the
    largest k with has_path(g, k), asked for k = 1, 2, ... until the
    answer is no."""
    k = 0
    while has_path(g, k + 1):
        k += 1
    return k


def is_free(g: Graph, k: int, m: int) -> bool:
    """{P_k, K_m}-free."""
    return not has_clique(g, m) and not has_path(g, k)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _reachable(g.rows, 1, 0) == g.vertex_mask()


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
