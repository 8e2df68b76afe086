import random
from math import factorial

import networkx as nx
import pytest

from pathclique import canon
from pathclique.canon import (
    _refine,
    _search,
    _twin_transpositions,
    canonical,
    canonical_form,
    canonical_with_generators,
)
from pathclique.constructions import double_star, h_extremal, turan, turan_union
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import (
    Graph,
    GraphError,
    complement,
    copies,
    disjoint_union,
    induced,
    iter_bits,
    join,
    lower_twins,
    make_graph,
    primitive,
    relabel,
    twin_classes,
)
from pathclique.oracle import _ENUMERATOR

from canon_reference import group_order, reference_canonical_labeling


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


def test_canonical_codes_count_the_classes():
    """Independent cross-check: the codes of all labelled graphs on n <= 6
    vertices number 1, 1, 2, 4, 11, 34, 156 (OEIS A000088, graphs on n
    unlabelled vertices), and sampled pairs with equal codes are
    isomorphic by networkx."""
    rng = random.Random(61)
    for n, classes in enumerate((1, 1, 2, 4, 11, 34, 156)):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        by_code: dict[bytes, list[Graph]] = {}
        for bits in range(1 << len(pairs)):
            g = make_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            by_code.setdefault(canonical(g), []).append(g)
        assert len(by_code) == classes
        for group in by_code.values():
            for _ in range(3):
                a, b = rng.choice(group), rng.choice(group)
                assert nx.is_isomorphic(_to_nx(a), _to_nx(b))


def test_lower_twins():
    assert lower_twins(primitive("path", 4)) == [0, 0, 0, 0]
    assert lower_twins(primitive("star", 4)) == [0, 0, 0b10, 0b110]
    assert lower_twins(primitive("complete", 3)) == [0, 0b1, 0b11]
    assert twin_classes(lower_twins(primitive("star", 4))) == {0: 0b1, 1: 0b1110}
    rng = random.Random(43)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.1, 0.5, 0.9]))
        lower = lower_twins(g)
        # twin_classes partitions the vertices, each class keyed by its
        # minimum, in ascending order
        classes = twin_classes(lower)
        assert list(classes) == sorted(classes)
        assert sorted(u for c in classes.values() for u in iter_bits(c)) == list(range(g.n))
        assert all(c & -c == 1 << low for low, c in classes.items())
        for v in range(g.n):
            for u in range(v):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                automorphic = relabel(g, swap) == g
                # twins are exactly the pairs whose swap is an automorphism
                is_twin = bool((lower[v] >> u) & 1)
                assert is_twin == automorphic
                assert any(c >> u & c >> v & 1 for c in classes.values()) == automorphic
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


def _twin_rich_graph(rng: random.Random) -> Graph:
    """A random graph on at most 7 vertices with each vertex blown up into
    a clique or an independent set of 1-5 vertices, with 0-3 vertex pairs
    flipped, relabelled at random."""
    base = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
    blocks, n = [], 0
    for _ in range(base.n):
        size = rng.randint(1, 5)
        blocks.append(range(n, n + size))
        n += size
    edges = set()
    for v, block in enumerate(blocks):
        if rng.random() < 0.5:
            edges |= {(a, b) for a in block for b in block if a < b}
        for u in iter_bits(base.rows[v] & ((1 << v) - 1)):
            edges |= {(a, b) for a in blocks[u] for b in block}
    for _ in range(rng.choice([0, 0, 1, 2, 3]) if n > 1 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        edges ^= {(a, b)}
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(make_graph(n, sorted(edges)), perm)


# connection sets in Z_4 x Z_4 of the 4 x 4 rook's graph and of the
# Shrikhande graph, both strongly regular with parameters (16, 6, 2, 2)
_ROOK = {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}
_SHRIKHANDE = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def _cayley_z4_squared(connection: set[tuple[int, int]]) -> Graph:
    """The Cayley graph on Z_4 x Z_4 with a connection set closed under
    negation; vertex 4i + j is (i, j)."""
    edges = [
        (u, v)
        for u in range(16)
        for v in range(u + 1, 16)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in connection
    ]
    return make_graph(16, edges)


def _is_automorphism(g: Graph, a: tuple[int, ...]) -> bool:
    """Whether a maps the neighbours of every vertex u onto those of a[u].
    Only the vertices a moves are checked: for w fixed and u moved, u ~ w
    then gives a[u] ~ w, so a maps the moved neighbours of w onto
    themselves, and the fixed ones stay."""
    return all(
        sum(1 << a[w] for w in iter_bits(g.rows[u])) == g.rows[a[u]]
        for u in range(g.n)
        if a[u] != u
    )


def _group_order_over_twins(g: Graph, gens) -> int:
    """The order of the group generated by gens, automorphisms of g that
    include every twin swap of g.  The twin swaps generate T, the
    permutations that map each twin class onto itself; T is normal in the
    group and is the kernel of its action on the classes.  So the order is
    |T|, the product of |C|! over the classes C, times the order of the
    group that gens induce on the classes."""
    lower = lower_twins(g)
    lowest = [(low & -low).bit_length() - 1 if low else v for v, low in enumerate(lower)]
    reps = sorted(set(lowest))
    index = {c: i for i, c in enumerate(reps)}
    order = 1
    for c in reps:
        order *= factorial(lowest.count(c))
    induced_gens = {tuple(index[lowest[a[c]]] for c in reps) for a in gens}
    return order * group_order(len(reps), induced_gens)


def test_canonical_labeling_matches_reference():
    """The union-find search, which also peels twin cells without
    searching them and jumps back to the divergence node at equal leaves,
    finds the same best leaf as the unpruned closure search: equal perm,
    and the form read from the best leaf is g relabelled by perm.  Jump-back
    skips subtrees whose equal leaves would only have added automorphisms
    of the group already generated, so the generators need not match the
    reference's list: each must be an automorphism of g, none may repeat,
    and they must generate a group of the same order as the reference's.
    Checked on random graphs, on random blow-ups
    of graphs on at most 7 vertices (twin-rich), on K_n and the empty graph
    for n <= 11, on the (P_7, K_4)-free levels to n = 8 as stored and
    relabelled, on relabelled Turan graphs, H_n and double stars,
    10 <= n <= 30, and on the 4 x 4 rook's graph, the Shrikhande graph and
    their disjoint union, as built and relabelled, the union five times.
    Both are strongly regular with the same parameters, so refinement
    splits neither, and in the union the subtrees below the two components
    are not images of each other: a search that jumped back from a leaf
    worse than the best would miss the best leaf there."""
    rng = random.Random(53)
    graphs = [
        random_graph(rng, rng.randint(0, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        for _ in range(2000)
    ]
    graphs += [_twin_rich_graph(rng) for _ in range(600)]
    for n in range(12):
        graphs += [primitive("complete", n), primitive("empty", n)]
    relabelled = len(graphs)
    for level in _ENUMERATOR.chain(7, 4, 8):
        graphs += [cf for cf, _gens, _code in level]
    for n in range(10, 31, 2):
        graphs += [turan(n, p) for p in (2, 3, 5)]
        graphs += [h_extremal(n, 4, 7), h_extremal(n, 5, 8), h_extremal(n, 6, 9)]
        graphs += [h_extremal(n, 7, 10), double_star(n // 3, n - n // 3)]
    rook, shrikhande = _cayley_z4_squared(_ROOK), _cayley_z4_squared(_SHRIKHANDE)
    union = disjoint_union(rook, shrikhande)
    graphs += [rook, shrikhande] + [union] * 4
    for g in graphs[relabelled:]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        _rows, perm, lower, found = _search(g)
        gens = _twin_transpositions(lower, range(g.n)) + found
        ref_perm, ref_gens = reference_canonical_labeling(g)
        assert perm == ref_perm
        assert canonical_form(g) == relabel(g, perm)
        assert all(_is_automorphism(g, a) for a in gens)
        assert len(set(gens)) == len(gens)
        if set(gens) != set(ref_gens):
            order = _group_order_over_twins(g, gens)
            assert order == _group_order_over_twins(g, ref_gens)


def test_twin_cells_are_peeled_without_refinement(monkeypatch):
    """A target cell of twins is split into singletons with no search
    node, so K_n and the empty graph are refined once, at the root; the
    counts on T(30, 5) and H_30(4, 7) are pinned, and hold under
    relabelling (one search node per vertex of a twin cell gave 176 and
    29).  On turan_union(30, 7, 4), five disjoint copies of T(6, 3), the
    count depends on the labelling, so it is pinned on the graph as
    built.  Jump-back to the divergence node at equal leaves took T(30, 5)
    from 25 to 15 and turan_union(30, 7, 4) from 161 to 100."""
    calls = []

    def spy(rows, cells, clean):
        calls.append(cells)
        return _refine(rows, cells, clean)

    monkeypatch.setattr(canon, "_refine", spy)
    rng = random.Random(59)

    def refinements(g: Graph) -> int:
        perm = list(range(g.n))
        rng.shuffle(perm)
        calls.clear()
        code = canonical(g)
        count = len(calls)
        calls.clear()
        assert canonical(relabel(g, perm)) == code
        assert len(calls) == count
        return count

    for n in range(1, 12):
        assert refinements(primitive("complete", n)) == 1
        assert refinements(primitive("empty", n)) == 1
    assert refinements(turan(30, 5)) == 15
    calls.clear()
    canonical(turan_union(30, 7, 4))
    assert len(calls) == 100
    assert refinements(h_extremal(30, 4, 7)) == 1
