"""Canonical labelling by partition refinement with backtracking.

The canonical form of a graph is the relabelling whose adjacency code
(tuple of row bitmasks) is lexicographically smallest over the leaves of
an individualisation-refinement search tree.  Two invariants are what
callers rely on: isomorphic graphs get equal codes, and the code is
unchanged by any relabelling of the input.  The best leaf's code is the
rows of the canonical form, so the form is built from it directly.

Branches are pruned with automorphisms: the generators are the twin
transpositions (interchangeable vertices are everywhere in joins and
Turan graphs) and the automorphisms recorded whenever two leaves produce
the same code.  Each found automorphism is stored with its support
bitmask, so testing whether it fixes the individualised prefix is a
single AND.

At a search node with target cell C, a vertex of C is skipped when it
lies in the orbit of an already searched vertex under the group generated
by the generators that fix the prefix; these map C onto itself, because
refinement commutes with automorphisms.  The orbits on C are kept by
union-find, with a "tried" flag on each root.  Each twin class minus the
prefix starts as one tree (every swap inside it fixes the prefix), and
each found automorphism that fixes the prefix is merged once, along its
support within C, before the next vertex of C is looked at.  The pruned
set equals that of closing the tried set under these generators after
each child, so the leaves visited, the canonical form and the generators
do not depend on how the orbits are kept.

A target cell C whose vertices are pairwise twins is not searched: it is
replaced by its singletons, in cell order, and the next cell of two or
more vertices becomes the target, with no refinement in between.  This
visits the same leaves in the same order, finds the same automorphisms
and returns the same form, perm and generators as searching C:
1. Only one child is ever searched at C.  Refinement never separates two
   twins outside the prefix, because their swap is an automorphism that
   fixes the prefix; so C is its twin class minus the prefix.  The
   union-find starts it as one tree, so only its first vertex c0 is
   searched and every other vertex of C is skipped.
2. Refinement leaves that child unchanged.  Every vertex outside C is
   adjacent to all of C or to none of it, so its count against {c0} is
   the same across its cell, because the partition was already equitable
   against C; inside C - c0 every vertex sees c0 in the same way.  So the
   partition is already equitable, and C - c0 is the next target.
3. So peeling is the same as searching.  By induction the search goes
   down |C| - 1 nodes with one child each, individualising C in cell
   order but its last vertex, and reaches the partition with C split
   into singletons.
"""

from __future__ import annotations

from typing import Sequence

from .graph6 import graph6_rows
from .graphs import Graph, _unchecked_graph, iter_bits, lower_twins


def _twin_transpositions(
    lower: list[int], perm: Sequence[int]
) -> list[tuple[int, ...]]:
    """Each twin swap (u v), in lexicographic order of (u, v), written in
    the labels perm; lower holds the lower twins of every vertex
    (graphs.lower_twins)."""
    pairs = sorted((u, v) for v, low in enumerate(lower) for u in iter_bits(low))
    ident = list(range(len(lower)))
    out = []
    for u, v in pairs:
        a = ident[:]
        pu, pv = perm[u], perm[v]
        a[pu], a[pv] = pv, pu
        out.append(tuple(a))
    return out


def _refine(
    rows: tuple[int, ...], cells: list[list[int]], clean: list[bool]
) -> list[list[int]]:
    """Equitable refinement of an ordered partition of the vertices; order
    is invariant.  clean[i] may be True only if cells[i] splits no cell.

    Every cell is split by the first cell, in order, that splits any, and
    the scan starts again, until no cell splits any.  A cell W that split
    nothing still splits nothing after other cells are split, since a part
    of a cell whose vertices all see W equally sees W equally too; so W is
    marked clean and not tried again unless it is itself split.  A
    splitter that was not itself split is clean after its split."""
    n = len(rows)
    clean = clean[:]
    si = 0
    while si < len(cells) and len(cells) < n:
        if clean[si]:
            si += 1
            continue
        w = 0
        for v in cells[si]:
            w |= 1 << v
        # None until a cell splits; from then on, the refined cells so far
        newcells: list[list[int]] | None = None
        newclean: list[bool] = []
        for ci, cell in enumerate(cells):
            uniform = True
            if len(cell) > 1:
                first = (rows[cell[0]] & w).bit_count()
                for v in cell:
                    if (rows[v] & w).bit_count() != first:
                        uniform = False
                        break
            if uniform:
                if newcells is not None:
                    newcells.append(cell)
                    newclean.append(clean[ci] or ci == si)
                continue
            if newcells is None:
                newcells = cells[:ci]
                newclean = [c or j == si for j, c in enumerate(clean[:ci])]
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & w).bit_count(), []).append(v)
            for key in sorted(groups):
                newcells.append(groups[key])
                newclean.append(False)
        if newcells is None:
            clean[si] = True
            si += 1
        else:
            cells, clean, si = newcells, newclean, 0
    return cells


def _find(up: list[int], u: int) -> int:
    """The root of u in the union-find forest up, halving the path."""
    while up[u] != u:
        up[u] = up[up[u]]
        u = up[u]
    return u


def _search(
    g: Graph,
) -> tuple[tuple[int, ...], list[int], list[int], list[tuple[int, ...]]]:
    """(rows of the canonical form, perm, lower twins, automorphisms found
    at equal leaves), with perm[old] = new canonical label."""
    n, rows = g.n, g.rows
    bydeg: dict[int, list[int]] = {}
    for v in range(n):
        bydeg.setdefault(rows[v].bit_count(), []).append(v)
    cells0 = [bydeg[d] for d in sorted(bydeg)]
    lower = lower_twins(g)
    # each as (automorphism, support bitmask)
    autos: list[tuple[tuple[int, ...], int]] = []
    best_code: list[tuple[int, ...] | None] = [None]
    best_order: list[list[int] | None] = [None]

    def leaf(order: list[int]) -> None:
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        code = []
        for v in order:
            r = 0
            m = rows[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                r |= 1 << pos[u]
            code.append(r)
        tcode = tuple(code)
        if best_code[0] is None or tcode < best_code[0]:
            best_code[0] = tcode
            best_order[0] = order[:]
        elif tcode == best_code[0] and order != best_order[0]:
            b = best_order[0]
            a = [0] * n
            support = 0
            for i in range(n):
                a[b[i]] = order[i]
                if b[i] != order[i]:
                    support |= 1 << b[i]
            autos.append((tuple(a), support))

    def search(cells: list[list[int]], clean: list[bool], fixed: int) -> None:
        cells = _refine(rows, cells, clean)
        target = 0
        while True:
            while target < len(cells) and len(cells[target]) == 1:
                target += 1
            if target == len(cells):
                leaf([c[0] for c in cells])
                return
            cell = cells[target]
            # A cell of twins is peeled into its singletons, in cell order,
            # with no refinement (see the module docstring).  Cells are in
            # ascending order, so low = min(cell).
            low = cell[0]
            if any(not lower[u] >> low & 1 for u in cell[1:]):
                break
            cells = cells[:target] + [[u] for u in cell] + cells[target + 1 :]
            for u in cell[:-1]:
                fixed |= 1 << u
            target += len(cell)
        # cells is equitable, so only the two parts of the target can split
        clean = [True] * (len(cells) + 1)
        clean[target] = clean[target + 1] = False
        # Orbits on the cell by union-find (see the module docstring).
        up = list(range(n))
        cellmask = 0
        for u in cell:
            cellmask |= 1 << u
            # the lowest twin of u outside the prefix, or u
            low = lower[u] & ~fixed | 1 << u
            up[u] = (low & -low).bit_length() - 1
        tried = seen = 0
        for v in cell:
            for a, support in autos[seen:]:
                if support & fixed:
                    continue
                m = support & cellmask
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    ru, rw = _find(up, u), _find(up, a[u])
                    if ru != rw:
                        up[rw] = ru
                        tried |= (tried >> rw & 1) << ru
            seen = len(autos)
            if (tried >> _find(up, v)) & 1:
                continue
            rest = [u for u in cell if u != v]
            split = cells[:target] + [[v], rest] + cells[target + 1 :]
            search(split, clean, fixed | (1 << v))
            tried |= 1 << _find(up, v)

    if n:
        search(cells0, [False] * len(cells0), 0)
    order = best_order[0] or []
    perm = [0] * n
    for i, v in enumerate(order):
        perm[v] = i
    return best_code[0] or (), perm, lower, [a for a, _support in autos]


def canonical_form(g: Graph) -> Graph:
    """The canonically relabelled copy of g."""
    return Graph(g.n, _search(g)[0])


def canonical_with_generators(g: Graph) -> tuple[Graph, list[tuple[int, ...]]]:
    """Canonical form plus automorphism generators in canonical labels: the
    twin swaps, then the automorphisms the search found, without repeats.
    They generate a subgroup of Aut(g), not necessarily all of it."""
    rows, perm, lower, found = _search(g)
    out = _twin_transpositions(lower, perm)
    seen = set(out)
    for a in found:
        b = [0] * g.n
        for u in range(g.n):
            b[perm[u]] = perm[a[u]]
        tb = tuple(b)
        if tb not in seen:
            seen.add(tb)
            out.append(tb)
    return _unchecked_graph(g.n, rows), out


def canonical(g: Graph) -> bytes:
    """Canonical code: graph6 bytes of the canonically relabelled graph."""
    return graph6_rows(_search(g)[0]).encode("ascii")
