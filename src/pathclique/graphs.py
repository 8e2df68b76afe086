"""Immutable simple graphs with bitmask adjacency rows.

Vertices are labelled 0..n-1 and each adjacency row is a Python int used
as a bitmask, so set operations on neighbourhoods are single integer ops.
The vertex count is capped at 64 so a row always fits one machine word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Raised for malformed graph data or out-of-range parameters."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    rows[u] is the neighbour bitmask of u.  Invariants (checked on
    construction): symmetric adjacency, no loops, no bits at positions >= n.
    Graphs that the package builds from a graph it already holds, valid by
    construction (a child in enumeration, a canonical relabelling), are
    made by _unchecked_graph, which skips the check.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = self.n, self.rows
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(rows) != n:
            raise GraphError("adjacency row count does not match n")
        full = (1 << n) - 1
        for u in range(n):
            ru = rows[u]
            if ru & ~full:
                raise GraphError(f"row {u} has bits at positions >= n")
            if (ru >> u) & 1:
                raise GraphError(f"loop at vertex {u}")
            m = ru
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if not (rows[v] >> u) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    # -- basic queries ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(r.bit_count() for r in self.rows)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def neighbors(self, u: int) -> list[int]:
        return list(iter_bits(self.rows[u]))

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def _unchecked_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph(n, rows) without the invariant check, for rows that satisfy
    it by construction; never for rows read from outside the package."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lower_twins(g: Graph) -> list[int]:
    """lower_twins(g)[v] is the bitmask of the twins u < v of v.

    u and v are twins when N(u) - {v} = N(v) - {u}: equal open
    neighbourhoods if they are non-adjacent, equal closed ones if they are
    adjacent; equivalently, swapping them is an automorphism.  The relation
    is an equivalence: u cannot have both an open twin v and a closed twin
    w, since w in N(u) = N(v) would put v in N[w] = N[u].
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    out = []
    for v, r in enumerate(g.rows):
        bit = 1 << v
        closed = r | bit
        seen_open = by_open.get(r, 0)
        seen_closed = by_closed.get(closed, 0)
        out.append(seen_open | seen_closed)
        by_open[r] = seen_open | bit
        by_closed[closed] = seen_closed | bit
    return out


def twin_classes(lower: list[int]) -> dict[int, int]:
    """The twin classes of a graph as bitmasks, each keyed by its lowest
    vertex, in ascending order of it, from its lower twins (lower_twins)."""
    out: dict[int, int] = {}
    for v, low in enumerate(lower):
        c = (low & -low).bit_length() - 1 if low else v
        out[c] = out.get(c, 0) | 1 << v
    return out


# -- constructors --------------------------------------------------------


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges (duplicates collapsed)."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop pair ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex pair ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def primitive(kind: str, n: int) -> Graph:
    """K_n, I_n, P_n, C_n or the star K_{1,n-1} (center labelled 0)."""
    if n < 0:
        raise GraphError("negative vertex count")
    if kind == "complete":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << u) for u in range(n)))
    if kind == "empty":
        return Graph(n, (0,) * n)
    if kind == "path":
        return make_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        if n < 1:
            raise GraphError("star needs at least 1 vertex")
        return make_graph(n, [(0, i) for i in range(1, n)])
    raise GraphError(f"unknown primitive kind {kind!r}")


def join(g: Graph, h: Graph) -> Graph:
    """G joined to H: all cross edges added; H relabelled above G."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise GraphError(f"join size {n} exceeds {MAX_VERTICES}")
    hmask_low = (1 << g.n) - 1
    hmask_high = ((1 << n) - 1) ^ hmask_low
    rows = [r | hmask_high for r in g.rows]
    rows += [(r << g.n) | hmask_low for r in h.rows]
    return Graph(n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, G's labels first."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise GraphError(f"union size {n} exceeds {MAX_VERTICES}")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, tuple(rows))


def copies(t: int, g: Graph) -> Graph:
    """t disjoint copies of g (t = 0 gives the empty graph on 0 vertices)."""
    if t < 0:
        raise GraphError("negative copy count")
    if t * g.n > MAX_VERTICES:
        raise GraphError(f"{t} copies of a {g.n}-vertex graph exceed {MAX_VERTICES}")
    rows: list[int] = []
    for i in range(t):
        shift = i * g.n
        rows += [r << shift for r in g.rows]
    return Graph(t * g.n, tuple(rows))


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the given vertices, relabelled ascending."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        r = 0
        m = g.rows[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if u in pos:
                r |= 1 << pos[u]
        rows.append(r)
    return Graph(len(vs), tuple(rows))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation: old vertex u becomes perm[u]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of 0..n-1")
    rows = [0] * g.n
    for u in range(g.n):
        r = 0
        m = g.rows[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            r |= 1 << perm[v]
        rows[perm[u]] = r
    return Graph(g.n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r ^ (1 << u)) for u, r in enumerate(g.rows)))
