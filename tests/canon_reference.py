"""Reference implementations that the canonical labelling tests check
against: the canonical search as it was before its orbits were kept by
union-find, and the order of a permutation group by Schreier-Sims."""

from pathclique.canon import _refine
from pathclique.graphs import Graph, lower_twins


def reference_canonical_labeling(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """The canonical search as it was before the union-find, returning
    (perm, generators): perm[old] = new label, and the generators are the
    twin swaps, then the automorphisms found at equal leaves.  After each
    child the tried set is closed by mapping it through every stored
    automorphism that fixes the prefix, twin swaps included, until it
    stops growing."""
    n, rows = g.n, g.rows
    if n == 0:
        return [], []
    bydeg: dict[int, list[int]] = {}
    for v in range(n):
        bydeg.setdefault(rows[v].bit_count(), []).append(v)
    cells0 = [bydeg[d] for d in sorted(bydeg)]
    autos = []
    lower = lower_twins(g)
    pairs = sorted((u, v) for v in range(n) for u in range(v) if lower[v] >> u & 1)
    for u, v in pairs:
        a = list(range(n))
        a[u], a[v] = v, u
        autos.append((tuple(a), (1 << u) | (1 << v)))
    best: list = [None, None]

    def leaf(order: list[int]) -> None:
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        code = tuple(
            sum(1 << pos[u] for u in range(n) if rows[v] >> u & 1) for v in order
        )
        if best[0] is None or code < best[0]:
            best[0], best[1] = code, order[:]
        elif code == best[0] and order != best[1]:
            a = [0] * n
            support = 0
            for i in range(n):
                a[best[1][i]] = order[i]
                if best[1][i] != order[i]:
                    support |= 1 << best[1][i]
            autos.append((tuple(a), support))

    def search(cells: list[list[int]], clean: list[bool], fixed: int) -> None:
        cells = _refine(rows, cells, clean)
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), -1)
        if target < 0:
            leaf([c[0] for c in cells])
            return
        cell = cells[target]
        clean = [True] * (len(cells) + 1)
        clean[target] = clean[target + 1] = False
        done = 0
        for v in cell:
            if (done >> v) & 1:
                continue
            rest = [u for u in cell if u != v]
            split = cells[:target] + [[v], rest] + cells[target + 1 :]
            search(split, clean, fixed | (1 << v))
            done |= 1 << v
            grew = True
            while grew:
                grew = False
                for a, support in autos:
                    if support & fixed:
                        continue
                    img = 0
                    for u in range(n):
                        if done >> u & 1:
                            img |= 1 << a[u]
                    if img & ~done:
                        done |= img
                        grew = True

    search(cells0, [False] * len(cells0), 0)
    perm = [0] * n
    for i, v in enumerate(best[1]):
        perm[v] = i
    return perm, [a for a, _support in autos]


def group_order(n: int, gens) -> int:
    """Order of the permutation group on range(n) generated by gens, by
    the Schreier-Sims algorithm with the base chosen as points are met."""
    ident = tuple(range(n))

    def mul(p, q):  # q first, then p
        return tuple(p[x] for x in q)

    def inv(p):
        out = [0] * n
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    base: list[int] = []
    strong: list[list[tuple]] = []
    trans: list[dict] = []

    def orbit(i: int) -> None:
        table = {base[i]: ident}
        queue = [base[i]]
        for x in queue:
            for s in strong[i]:
                if s[x] not in table:
                    table[s[x]] = mul(s, table[x])
                    queue.append(s[x])
        trans[i] = table

    def sift(g, i: int):
        while i < len(base):
            x = g[base[i]]
            if x not in trans[i]:
                break
            g = mul(inv(trans[i][x]), g)
            i += 1
        return g, i

    def add(h, i: int) -> None:
        """Add h, which fixes base[:i], and make levels i.. complete."""
        h, j = sift(h, i)
        if h == ident:
            return
        if j == len(base):
            base.append(next(x for x in range(n) if h[x] != x))
            strong.append([])
            trans.append({})
        for level in range(i, j + 1):
            strong[level].append(h)
            orbit(level)
        for level in range(j, i - 1, -1):
            for x, t in list(trans[level].items()):
                for s in list(strong[level]):
                    schreier = mul(inv(trans[level][s[x]]), mul(s, t))
                    add(schreier, level + 1)

    for g in gens:
        add(tuple(g), 0)
    order = 1
    for table in trans:
        order *= len(table)
    return order
