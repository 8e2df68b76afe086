import random
from itertools import combinations

import networkx as nx
import pytest

from pathclique.constructions import double_star, g1, g4, h_extremal, turan
from pathclique.detect import (
    StructureClass,
    blocks,
    classify_structure,
    count_cliques,
    has_clique,
    has_path,
    is_2connected,
    is_connected,
    is_free,
    longest_path_order,
    sigma3,
    strong_dominating_cycle,
    strong_dominating_path,
)
from pathclique.formulas import delta_k
from pathclique.graphs import (
    Graph,
    copies,
    disjoint_union,
    join,
    make_graph,
    primitive,
    relabel,
)
from pathclique.oracle import EnumerationConfig, enumerate_graphs


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def brute_cliques(g: Graph, r: int) -> int:
    return sum(
        1
        for sub in combinations(range(g.n), r)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def longest_path_dp(g: Graph) -> int:
    """Independent oracle: dynamic programming over (vertex subset, end)."""
    if g.n == 0:
        return 0
    best = 1
    frontier = {(1 << v, v) for v in range(g.n)}
    while frontier:
        nxt = set()
        for mask, v in frontier:
            ext = g.rows[v] & ~mask
            while ext:
                u = (ext & -ext).bit_length() - 1
                ext &= ext - 1
                nxt.add((mask | (1 << u), u))
        if nxt:
            best += 1
        frontier = nxt
    return best


def twin_blowup(rng, max_n: int) -> Graph:
    """Random blow-up of a small random graph: each base vertex becomes an
    independent set (open twins) or a clique (closed twins), and base
    edges become complete bipartite joins; the labels are then shuffled."""
    b = rng.randint(1, 5)
    base = random_graph(rng, b, rng.choice([0.3, 0.6, 0.9]))
    sizes = [1] * b
    while sum(sizes) < max_n and rng.random() < 0.85:
        sizes[rng.randrange(b)] += 1
    members, start = [], 0
    for size in sizes:
        members.append(range(start, start + size))
        start += size
    edges = []
    for i in range(b):
        if rng.random() < 0.5:
            edges += combinations(members[i], 2)
        for j in range(i + 1, b):
            if base.has_edge(i, j):
                edges += [(u, v) for u in members[i] for v in members[j]]
    perm = list(range(start))
    rng.shuffle(perm)
    return relabel(make_graph(start, edges), perm)


def assert_path_search_exact(g: Graph) -> None:
    want = longest_path_dp(g)
    assert longest_path_order(g) == want
    for k in range(g.n + 2):
        assert has_path(g, k) == (k <= want)


def test_count_cliques_examples():
    assert count_cliques(primitive("complete", 5), 3) == 10
    assert count_cliques(turan(6, 3), 3) == 8
    assert count_cliques(primitive("cycle", 5), 3) == 0
    g = primitive("path", 4)
    assert count_cliques(g, 0) == 1
    assert count_cliques(g, 1) == 4
    assert count_cliques(g, 2) == 3
    with pytest.raises(ValueError):
        count_cliques(g, -1)


def test_count_cliques_vs_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        for r in range(0, 6):
            assert count_cliques(g, r) == brute_cliques(g, r)


def test_has_clique():
    assert not has_clique(turan(8, 4), 5)
    assert has_clique(primitive("complete", 4), 4)
    assert not has_clique(h_extremal(12, 4, 8), 4)
    assert has_clique(primitive("empty", 3), 1)
    assert not has_clique(primitive("empty", 0), 1)


def test_join_convolution():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 8))
        h = random_graph(rng, rng.randint(0, 8))
        j = join(g, h)
        for r in range(0, 7):
            want = sum(
                count_cliques(g, i) * count_cliques(h, r - i) for i in range(r + 1)
            )
            assert count_cliques(j, r) == want


def test_union_additivity():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 8))
        h = random_graph(rng, rng.randint(0, 8))
        u = disjoint_union(g, h)
        for r in range(1, 6):
            assert count_cliques(u, r) == count_cliques(g, r) + count_cliques(h, r)


def test_longest_path_examples():
    assert longest_path_order(primitive("cycle", 5)) == 5
    assert longest_path_order(double_star(3, 3)) == 4
    assert longest_path_order(Graph(0, ())) == 0
    petersen = make_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    assert longest_path_order(petersen) == 10


def test_longest_path_vs_dp_oracle():
    rng = random.Random(37)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 8), rng.choice([0.2, 0.5, 0.8]))
        assert longest_path_order(g) == longest_path_dp(g)
    # twin-heavy inputs, where the twin pruning of the path search acts
    for _ in range(150):
        assert_path_search_exact(twin_blowup(rng, 11))
    structured = [
        h_extremal(n, m, k)
        for k in range(4, 11)
        for m in range(3, k)
        for n in range(delta_k(k) + 2, 13)
    ]
    for a in range(1, 7):
        for b in range(1, 13 - a):
            structured.append(join(primitive("empty", a), primitive("complete", b)))
            structured.append(join(primitive("empty", a), primitive("empty", b)))
        matching = copies((12 - a) // 2, primitive("complete", 2))
        structured.append(join(primitive("empty", a), matching))
    for g in structured:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_path_search_exact(g)
        assert_path_search_exact(relabel(g, perm))


def test_longest_path_vs_dp_on_enumerated_corpus():
    for g in enumerate_graphs(EnumerationConfig(n=6)):
        assert longest_path_order(g) == longest_path_dp(g)


def test_has_path():
    assert not has_path(h_extremal(15, 4, 8), 8)
    assert has_path(primitive("complete", 9), 9)
    assert not has_path(primitive("empty", 5), 2)
    assert has_path(primitive("empty", 5), 1)
    assert has_path(primitive("empty", 0), 0)
    assert not has_path(primitive("empty", 0), 1)


def test_is_free():
    assert is_free(copies(2, turan(4, 2)), 5, 3)
    assert not is_free(primitive("complete", 4), 4, 4)
    assert is_free(primitive("star", 10), 4, 3)


def test_connectivity():
    assert is_connected(primitive("path", 6))
    assert not is_connected(copies(2, primitive("complete", 3)))
    assert is_connected(Graph(0, ()))
    assert is_2connected(primitive("cycle", 4))
    assert not is_2connected(primitive("path", 4))
    assert not is_2connected(primitive("complete", 2))


def test_blocks_examples():
    dec = blocks(g1(7, 6))
    assert len(dec.blocks) == 3
    assert dec.cut_vertices == frozenset({0})
    assert len(dec.end_blocks) == 3
    dec = blocks(primitive("path", 4))
    assert len(dec.blocks) == 3
    assert dec.cut_vertices == frozenset({1, 2})
    assert len(dec.end_blocks) == 2


def test_blocks_vs_networkx():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4]))
        gg = nx.Graph()
        gg.add_nodes_from(range(g.n))
        gg.add_edges_from(g.edges())
        dec = blocks(g)
        want_blocks = {frozenset(b) for b in nx.biconnected_components(gg)}
        assert set(dec.blocks) == want_blocks
        assert dec.cut_vertices == set(nx.articulation_points(gg))
        # every edge lies in exactly one block
        for u, v in g.edges():
            assert sum(1 for b in dec.blocks if u in b and v in b) == 1
        # cut vertex iff in >= 2 blocks
        for v in range(g.n):
            in_blocks = sum(1 for b in dec.blocks if v in b)
            assert (v in dec.cut_vertices) == (in_blocks >= 2)


def test_sigma3():
    assert sigma3(primitive("cycle", 6)) == 6
    assert sigma3(primitive("complete", 5)) is None
    assert sigma3(primitive("star", 5)) == 3


def test_strong_dominating_path():
    p = strong_dominating_path(primitive("star", 5))
    assert p is not None and 0 in p
    assert strong_dominating_path(h_extremal(10, 4, 8)) is not None
    assert strong_dominating_path(copies(2, primitive("complete", 2))) is None


def test_strong_dominating_cycle():
    assert strong_dominating_cycle(primitive("complete", 4)) is not None
    assert strong_dominating_cycle(primitive("path", 4)) is None
    c = strong_dominating_cycle(join(primitive("complete", 2), primitive("empty", 5)))
    assert c is not None


def test_saito_bound_on_2connected_corpus():
    # 2-connected graph has a strong dominating cycle or a path of order
    # at least min(n, sigma3 - 1); vacuous without an independent triple
    corpora = [EnumerationConfig(n=n) for n in range(3, 8)]
    corpora += [
        EnumerationConfig(n=8, forbid_path=6, forbid_clique=4),
        EnumerationConfig(n=9, forbid_path=6, forbid_clique=4),
    ]
    checked = 0
    for config in corpora:
        for g in enumerate_graphs(config):
            if not is_2connected(g):
                continue
            s3 = sigma3(g)
            if s3 is None:
                continue
            checked += 1
            if strong_dominating_cycle(g) is None:
                assert longest_path_order(g) >= min(g.n, s3 - 1)
    assert checked > 100


def test_classify_examples():
    g = join(primitive("complete", 2), copies(4, primitive("complete", 2)))
    assert classify_structure(g, 9, 5).class_tag is StructureClass.CLASS4_K2
    out = classify_structure(h_extremal(9, 4, 8), 8, 4)
    assert out.class_tag is StructureClass.CLASS1
    assert out.witness == frozenset({0, 1, 2})
    assert classify_structure(g4(5, 5), 7, 4).class_tag is StructureClass.CLASS3_G4


def test_classify_preconditions():
    with pytest.raises(ValueError):
        classify_structure(copies(2, primitive("complete", 3)), 8, 4)  # disconnected
    with pytest.raises(ValueError):
        classify_structure(primitive("complete", 8), 8, 4)  # not free
    with pytest.raises(ValueError):
        classify_structure(primitive("star", 8), 8, 4)  # min degree < delta
    with pytest.raises(ValueError):
        classify_structure(h_extremal(6, 4, 8), 8, 4)  # n < k
