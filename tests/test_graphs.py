import random

import networkx as nx
import pytest

from pathclique.canon import (
    _refine,
    _search,
    _twin_transpositions,
    canonical,
    canonical_form,
    canonical_with_generators,
)
from pathclique.constructions import double_star, h_extremal, turan
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import (
    Graph,
    GraphError,
    complement,
    copies,
    disjoint_union,
    induced,
    join,
    lower_twins,
    make_graph,
    primitive,
    relabel,
)
from pathclique.oracle import _ENUMERATOR


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (1,))  # wrong row count
    with pytest.raises(GraphError):
        Graph(1, (1,))  # loop
    with pytest.raises(GraphError):
        Graph(1, (2,))  # bit beyond n
    with pytest.raises(GraphError):
        Graph(65, (0,) * 65)
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])


def test_basic_queries():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees() == [1, 2, 2, 1]
    assert g.min_degree() == 1
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]


def test_primitives():
    assert primitive("complete", 5).edge_count() == 10
    assert primitive("empty", 5).edge_count() == 0
    assert primitive("path", 5).edge_count() == 4
    assert primitive("cycle", 5).edge_count() == 5
    star = primitive("star", 5)
    assert star.degree(0) == 4 and star.edge_count() == 4
    assert primitive("path", 0).n == 0
    with pytest.raises(GraphError):
        primitive("cycle", 2)
    with pytest.raises(GraphError):
        primitive("wheel", 5)


def test_join_size_edge_law():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 10))
        h = random_graph(rng, rng.randint(0, 10))
        if g.n + h.n > 64:
            continue
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n
        u = disjoint_union(g, h)
        assert u.edge_count() == g.edge_count() + h.edge_count()


def test_copies_induced_relabel_complement():
    g = make_graph(3, [(0, 1), (1, 2)])
    c = copies(3, g)
    assert c.n == 9 and c.edge_count() == 6
    sub = induced(c, [3, 4, 5])
    assert sub.edges() == [(0, 1), (1, 2)]
    rl = relabel(g, [2, 0, 1])
    assert rl.edges() == [(0, 2), (0, 1)] or set(rl.edges()) == {(0, 2), (0, 1)}
    comp = complement(primitive("empty", 4))
    assert comp.edge_count() == 6
    with pytest.raises(GraphError):
        relabel(g, [0, 0, 1])


def _to_nx(g: Graph) -> nx.Graph:
    gg = nx.Graph()
    gg.add_nodes_from(range(g.n))
    gg.add_edges_from(g.edges())
    return gg


def test_graph6_matches_networkx():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12))
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_graph6_roundtrip_and_long_form():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 12))
        assert graph6_decode(graph6_encode(g)) == g
    big = primitive("cycle", 64)
    text = graph6_encode(big)
    assert text.startswith("~")
    assert graph6_decode(text) == big


def test_graph6_rejects_malformed():
    with pytest.raises(GraphError):
        graph6_decode("")
    with pytest.raises(GraphError):
        graph6_decode("B")  # truncated payload
    with pytest.raises(GraphError):
        graph6_decode("A" + chr(200))
    with pytest.raises(GraphError):
        graph6_decode("~~????")  # 8-byte size field
    # nonzero padding bits: K_2 on 2 vertices uses 1 bit, rest must be 0
    ok = graph6_encode(primitive("complete", 2))
    bad = ok[0] + chr(63 + ((ord(ok[1]) - 63) | 1))
    with pytest.raises(GraphError):
        graph6_decode(bad)


def test_canonical_invariant_under_relabeling():
    rng = random.Random(17)
    graphs = [random_graph(rng, rng.randint(1, 10)) for _ in range(150)]
    # large symmetric graphs, where twin automorphisms prune the search
    for n in range(12, 25, 3):
        graphs += [turan(n, p) for p in (2, 3, 5)]
        graphs += [h_extremal(n, 4, 8), h_extremal(n, 6, 9), h_extremal(n, 7, 10)]
        graphs.append(double_star(n // 3, n - n // 3))
    for g in graphs:
        code = canonical(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical(relabel(g, perm)) == code


def test_canonical_separates_nonisomorphic():
    # all 4-vertex graphs: 11 isomorphism classes, 11 distinct codes
    seen = {}
    for bits in range(1 << 6):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges = [pairs[i] for i in range(6) if (bits >> i) & 1]
        g = make_graph(4, edges)
        seen.setdefault(canonical(g), g)
    assert len(seen) == 11
    for code, g in seen.items():
        other = _to_nx(g)
        for code2, g2 in seen.items():
            if code != code2:
                assert not nx.is_isomorphic(other, _to_nx(g2))


def test_lower_twins():
    assert lower_twins(primitive("path", 4)) == [0, 0, 0, 0]
    assert lower_twins(primitive("star", 4)) == [0, 0, 0b10, 0b110]
    assert lower_twins(primitive("complete", 3)) == [0, 0b1, 0b11]
    rng = random.Random(43)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.1, 0.5, 0.9]))
        lower = lower_twins(g)
        for v in range(g.n):
            for u in range(v):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                # twins are exactly the pairs whose swap is an automorphism
                is_twin = bool((lower[v] >> u) & 1)
                assert is_twin == (relabel(g, swap) == g)
                # the relation is transitive
                if is_twin:
                    assert lower[u] == lower[v] & ((1 << u) - 1)


def test_canonical_generators_are_automorphisms():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9))
        cf, gens = canonical_with_generators(g)
        for a in gens:
            assert relabel(cf, list(a)) == cf


def _reference_refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement as canon._refine did it before clean flags:
    every cell is tried as a splitter on every scan."""
    changed = True
    while changed:
        changed = False
        for si in range(len(cells)):
            w = 0
            for v in cells[si]:
                w |= 1 << v
            newcells: list[list[int]] = []
            split = False
            for cell in cells:
                if len(cell) == 1:
                    newcells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & w).bit_count(), []).append(v)
                if len(groups) == 1:
                    newcells.append(cell)
                else:
                    split = True
                    for key in sorted(groups):
                        newcells.append(groups[key])
            if split:
                cells = newcells
                changed = True
                break
    return cells


def _individualise(
    rng: random.Random, cells: list[list[int]]
) -> tuple[list[list[int]], int]:
    """cells with a random vertex of a random cell of two or more split off
    in front of the rest of its cell, and the index of its new cell; t is
    -1 and cells unchanged if every cell is a single vertex."""
    big = [i for i, cell in enumerate(cells) if len(cell) > 1]
    if not big:
        return cells, -1
    t = rng.choice(big)
    v = rng.choice(cells[t])
    rest = [u for u in cells[t] if u != v]
    return cells[:t] + [[v], rest] + cells[t + 1 :], t


def test_refine_matches_reference():
    """_refine against the version without clean flags, on the degree
    partitions of random graphs, with and without one individualised
    vertex, and as the canonical search calls it: an equitable partition
    with one vertex individualised, every other cell marked clean."""
    rng = random.Random(47)
    checked = 0
    while checked < 20000:
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        bydeg: dict[int, list[int]] = {}
        for v in range(n):
            bydeg.setdefault(g.rows[v].bit_count(), []).append(v)
        cells = [bydeg[d] for d in sorted(bydeg)]
        for part in (cells, _individualise(rng, cells)[0]):
            want = _reference_refine(g.rows, part)
            assert _refine(g.rows, part, [False] * len(part)) == want
            checked += 1
        split, t = _individualise(rng, _reference_refine(g.rows, cells))
        if t >= 0:
            clean = [True] * len(split)
            clean[t] = clean[t + 1] = False
            given = clean[:]
            assert _refine(g.rows, split, clean) == _reference_refine(g.rows, split)
            # the search hands the same flags to every sibling
            assert clean == given
            checked += 1


def _reference_canonical_labeling(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
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


def test_canonical_labeling_matches_reference():
    """The union-find search visits the same leaves as the closure it
    replaced: equal perm and equal generators, in order, and the form read
    from the best leaf is g relabelled by perm, on random graphs,
    on the (P_7, K_4)-free levels to n = 8 as stored and relabelled, and
    on relabelled Turan graphs, H_n and double stars, 10 <= n <= 30."""
    rng = random.Random(53)
    graphs = [
        random_graph(rng, rng.randint(0, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        for _ in range(2000)
    ]
    for level in _ENUMERATOR.levels(7, 4, 8):
        graphs += [cf for cf, _gens, _code in level]
    for n in range(10, 31, 2):
        graphs += [turan(n, p) for p in (2, 3, 5)]
        graphs += [h_extremal(n, 4, 7), h_extremal(n, 5, 8), h_extremal(n, 6, 9)]
        graphs += [h_extremal(n, 7, 10), double_star(n // 3, n - n // 3)]
    for g in graphs[2000:]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        _cf, perm, lower, found = _search(g)
        gens = _twin_transpositions(lower, range(g.n)) + found
        assert (perm, gens) == _reference_canonical_labeling(g)
        assert canonical_form(g) == relabel(g, perm)
