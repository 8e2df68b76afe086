"""Builders for the named extremal graph families.

Labeling conventions are fixed so every builder is deterministic:
Turan parts are labelled consecutively, largest parts first; joins keep
the left operand's labels; centers come first in the block constructions.
"""

from __future__ import annotations

from .formulas import ParameterError, delta_k, part_sizes
from .graphs import (
    Graph,
    GraphError,
    copies,
    disjoint_union,
    join,
    make_graph,
    primitive,
)


def turan(n: int, p: int) -> Graph:
    """T(n,p): balanced complete p-partite graph (K_n when p >= n)."""
    sizes = part_sizes(n, p)
    if n > 64:
        raise GraphError("Turan graph exceeds 64 vertices")
    part_of = []
    for i, s in enumerate(sizes):
        part_of += [i] * s
    masks = [0] * len(sizes)
    for v, i in enumerate(part_of):
        masks[i] |= 1 << v
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ masks[part_of[v]] for v in range(n)))


def h_extremal(n: int, m: int, k: int) -> Graph:
    """H_n(m,k), the three-case {P_k, K_m}-free extremal construction."""
    if k < 4 or m < 3 or m >= k:
        raise ParameterError("need k >= 4, m >= 3, m < k")
    dk = delta_k(k)
    if n < dk + 2:
        raise ParameterError(f"need n >= delta_k + 2 = {dk + 2}")
    if m <= dk + 2:
        return join(turan(dk, m - 2), primitive("empty", n - dk))
    if k % 2 == 0:
        return join(primitive("complete", dk), primitive("empty", n - dk))
    return join(
        primitive("complete", dk),
        disjoint_union(primitive("empty", n - dk - 2), primitive("complete", 2)),
    )


def _delete_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def h_minus(n: int, m: int, k: int) -> Graph:
    """H_n^-(m,k): the odd-k near-extremal graph with one edge removed.

    Deletes the edge between the lowest-labelled K_2 vertex and the
    lowest-labelled vertex lying in a singleton Turan part; all other
    choices of singleton part are isomorphic.
    """
    if k % 2 == 0:
        raise ParameterError("h_minus needs odd k")
    if k < 5 or m < 3:
        raise ParameterError("need k >= 5 and m >= 3")
    dk = delta_k(k)
    if not m - 2 <= dk <= 2 * m - 5:
        raise ParameterError("need m-2 <= delta_k <= 2m-5 (singleton part exists)")
    if n < dk + 4:
        raise ParameterError(f"need n >= delta_k + 4 = {dk + 4}")
    base = join(
        turan(dk, m - 2),
        disjoint_union(primitive("empty", n - dk - 2), primitive("complete", 2)),
    )
    sizes = part_sizes(dk, m - 2)
    offset = 0
    for s in sizes:
        if s == 1:
            break
        offset += s
    else:
        raise ParameterError("no singleton part in the Turan side")
    return _delete_edge(base, n - 2, offset)


def double_star(a: int, b: int) -> Graph:
    """S_{a,b}: centers 0 and 1 joined, with a-1 and b-1 leaves."""
    if a < 1 or b < 1:
        raise ParameterError("both sides of a double star must be nonempty")
    n = a + b
    if n > 64:
        raise GraphError("double star exceeds 64 vertices")
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, a + 1)]
    edges += [(1, i) for i in range(a + 1, n)]
    return make_graph(n, edges)


def g1(n: int, k: int) -> Graph:
    """K_1 joined to t copies of K_{delta_k}; center labelled 0."""
    dk = delta_k(k)
    if (n - 1) % dk != 0 or (n - 1) // dk < 1:
        raise ParameterError(f"need n = 1 + t*delta_k with t >= 1 (delta_k={dk})")
    t = (n - 1) // dk
    return join(primitive("complete", 1), copies(t, primitive("complete", dk)))


def _add_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def g2(n1: int, n2: int, k: int) -> Graph:
    """Two center-block graphs with their centers joined; odd k only."""
    if k % 2 == 0:
        raise ParameterError("g2 needs odd k")
    left = g1(n1, k)
    right = g1(n2, k)
    return _add_edge(disjoint_union(left, right), 0, n1)


def g3(n: int, k: int, block: Graph, attach: int) -> Graph:
    """g1 with one K_{delta_k+1} block replaced by a larger block.

    block has delta_k + 2 vertices; its vertex `attach` is identified
    with the center.  Labels: center 0, then the K_{delta_k} blocks,
    then the remaining block vertices in ascending original order.
    """
    if k % 2 == 0:
        raise ParameterError("g3 needs odd k")
    dk = delta_k(k)
    if block.n != dk + 2:
        raise ParameterError(f"block must have delta_k + 2 = {dk + 2} vertices")
    if not 0 <= attach < block.n:
        raise ParameterError("attach vertex out of range")
    rest = n - dk - 2
    if rest < dk or rest % dk != 0:
        raise ParameterError("order does not fit 1 + t*delta_k + (delta_k+1)")
    t1 = rest // dk
    base = 1 + rest  # center plus t1 complete blocks
    label = {attach: 0}
    nxt = base
    for v in range(block.n):
        if v != attach:
            label[v] = nxt
            nxt += 1
    edges = []
    for i in range(t1):
        blk = [0] + list(range(1 + i * dk, 1 + (i + 1) * dk))
        edges += [(u, v) for ui, u in enumerate(blk) for v in blk[ui + 1 :]]
    for u, v in block.edges():
        edges.append((label[u], label[v]))
    return make_graph(n, edges)


def _center_star_composite(n1: int, n2: int, join_star_center: bool) -> Graph:
    if n2 < 4:
        raise ParameterError("need n2 >= 4")
    fan = g1(n1, 7)
    n = n1 + n2 - 1
    if n > 64:
        raise GraphError("composite exceeds 64 vertices")
    edges = fan.edges()
    star_center = n1
    leaves = list(range(n1 + 1, n))
    edges += [(star_center, leaf) for leaf in leaves]
    edges += [(0, leaf) for leaf in leaves]
    if join_star_center:
        edges.append((0, star_center))
    return make_graph(n, edges)


def g4(n1: int, n2: int) -> Graph:
    """Center of g1(n1,7) joined to the leaves of a star on n2 vertices."""
    return _center_star_composite(n1, n2, join_star_center=False)


def g5(n1: int, n2: int) -> Graph:
    """Center of g1(n1,7) joined to all vertices of a star on n2 vertices."""
    return _center_star_composite(n1, n2, join_star_center=True)


def turan_union(n: int, k: int, m: int) -> Graph:
    """n/(k-1) disjoint copies of T(k-1, m-1); needs (k-1) | n."""
    if k < 2 or n % (k - 1) != 0:
        raise ParameterError("need (k-1) | n")
    return copies(n // (k - 1), turan(k - 1, m - 1))
