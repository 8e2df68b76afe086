import random
import time
from itertools import combinations, permutations

import networkx as nx
import pytest

from pathclique.canon import canonical
from pathclique.constructions import double_star, g1, g2, g3, g4, g5, h_extremal, turan
from pathclique.detect import (
    StructureClass,
    _class1_witness,
    blocks,
    class_table,
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
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import (
    Graph,
    copies,
    disjoint_union,
    induced,
    join,
    make_graph,
    primitive,
    relabel,
)
from pathclique.oracle import (
    EnumerationConfig,
    clear_cache,
    enumerate_graphs,
    g3_block_family,
    valid_attach_vertices,
)


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
    """has_path at every k, and longest_path_order, against the DP."""
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
        assert_path_search_exact(g)
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
    corpus = enumerate_graphs(EnumerationConfig(n=6))
    assert len(corpus) == 156
    for g in corpus:
        assert_path_search_exact(g)


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


def _dominating_orders(g: Graph) -> tuple[int, bool]:
    """The order of a longest path whose vertex set strongly dominates g,
    and whether some cycle's does, by trying every ordering of every
    dominating vertex subset."""
    longest, cycle = 0, False
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            outside = [v for v in range(g.n) if v not in subset]
            if any(u not in subset for v in outside for u in g.neighbors(v)):
                continue
            for seq in permutations(subset):
                if longest >= size and (cycle or size < 3):
                    break
                if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                    longest = max(longest, size)
                    cycle = cycle or (size >= 3 and g.has_edge(seq[-1], seq[0]))
    return longest, cycle


def _strongly_dominates(g: Graph, seq: tuple[int, ...]) -> bool:
    return all(u in seq for v in range(g.n) if v not in seq for u in g.neighbors(v))


def test_strong_dominating_against_brute_force():
    """On every graph with at most 6 vertices, as stored and relabelled,
    strong_dominating_path returns a path of the brute-force longest order
    and strong_dominating_cycle a cycle exactly when one exists, each with
    a vertex set that strongly dominates.  The cycle search once missed
    cycles whose labels were out of order (C4 as 0-3-1-2)."""
    rng = random.Random(8)
    c4 = make_graph(4, [(0, 3), (3, 1), (1, 2), (2, 0)])
    assert strong_dominating_cycle(c4) is not None
    for n in range(7):
        for stored in enumerate_graphs(EnumerationConfig(n=n)):
            longest, cycle = _dominating_orders(stored)
            perm = list(range(n))
            rng.shuffle(perm)
            for g in (stored, relabel(stored, perm)):
                code = graph6_encode(g)
                path = strong_dominating_path(g)
                assert len(path or ()) == longest, code
                if path is not None:
                    assert len(set(path)) == len(path), code
                    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:])), code
                    assert _strongly_dominates(g, path), code
                found = strong_dominating_cycle(g)
                assert (found is not None) == cycle, code
                if found is not None:
                    assert len(set(found)) == len(found) >= 3, code
                    ring = zip(found, found[1:] + found[:1])
                    assert all(g.has_edge(a, b) for a, b in ring), code
                    assert _strongly_dominates(g, found), code


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


def _reference_candidates(n: int, k: int, m: int):
    """The Class 2-4 candidates of classify_structure as (class, witness,
    graph), in the order its former chain of tests tried them."""
    dk = delta_k(k)
    if m >= dk + 2:
        if (n - 1) % dk == 0 and (n - 1) // dk >= 1:
            yield StructureClass.CLASS2_G1, {"n": n, "k": k}, g1(n, k)
        if k % 2 == 1:
            n1 = 1 + dk
            while n1 <= n - 1 - dk:
                n2 = n - n1
                if (n2 - 1) % dk == 0 and (n2 - 1) // dk >= 1:
                    witness = {"n1": n1, "n2": n2, "k": k}
                    yield StructureClass.CLASS2_G2, witness, g2(n1, n2, k)
                n1 += dk
            rest = n - dk - 2
            if rest >= dk and rest % dk == 0:
                for block in g3_block_family(k, m):
                    for attach in valid_attach_vertices(block, dk):
                        cand = g3(n, k, block, attach)
                        if cand.min_degree() < dk:
                            continue
                        witness = {"n": n, "k": k, "block": canonical(block)}
                        yield StructureClass.CLASS2_G3, witness, cand
    if k == 7 and m >= 4:
        for n1 in range(3, n - 2, 2):
            n2 = n + 1 - n1
            if n2 < 4:
                continue
            yield StructureClass.CLASS3_G4, {"n1": n1, "n2": n2}, g4(n1, n2)
            yield StructureClass.CLASS3_G5, {"n1": n1, "n2": n2}, g5(n1, n2)
    if k == 9 and n >= 4 and n % 2 == 0:
        matching = copies((n - 2) // 2, primitive("complete", 2))
        if m >= 4:
            i2 = join(primitive("empty", 2), matching)
            yield StructureClass.CLASS4_I2, {"n": n}, i2
        if m >= 5:
            k2 = join(primitive("complete", 2), matching)
            yield StructureClass.CLASS4_K2, {"n": n}, k2


def _reference_classify(g: Graph, k: int, m: int) -> tuple:
    """classify_structure as a chain of tests, each candidate labelled for
    every input: the Class 1 witness search, then the first candidate in
    order whose canonical code is that of g."""
    n, dk = g.n, delta_k(k)
    for subset in combinations(range(n), dk):
        outside = induced(g, [v for v in range(n) if v not in subset])
        if outside.edge_count() > k % 2:
            continue
        if not has_clique(induced(g, subset), m - 1):
            return StructureClass.CLASS1, frozenset(subset)
    code = canonical(g)
    for tag, witness, cand in _reference_candidates(n, k, m):
        if canonical(cand) == code:
            return tag, witness
    return StructureClass.UNCLASSIFIED, None


# the connected {P_9, K_5}-free graphs on 9 vertices with minimum degree
# >= 3, as enumerate_graphs lists them; enumerating them takes ~30 s
P9_K5_N9_INPUTS = (
    "H??F~z{ H??F~z| H??F~z~ H??F~~~ H??Nfz{ H??Nfz| H??Nfz} H??Nfz~ H??Nf~} "
    "H??Nf~~ H??Nnr{ H??Nnr| H??Nnr~ H??Nnv{ H??Nnv| H??Nnv~ H??Nnz{ H??Nnz| "
    "H??Nnz} H??Nnz~ H??Nn~} H??Nn~~ H??N~z{ H??N~z| H??N~z~"
).split()


def _classifier_inputs() -> list[tuple[Graph, int, int]]:
    """Every input of verify_classification for (5, 3) and (7, 4) up to
    n = 9 and for (9, 5) at n = 9, and the family members the benchmark
    classifies (H_n, G1, G4, G5 for 7 <= n <= 16) plus I2 and K2."""
    out = []
    for k, m in ((5, 3), (7, 4)):
        for n in range(k, 10):
            config = EnumerationConfig(
                n=n,
                forbid_path=k,
                forbid_clique=m,
                connected_only=True,
                min_degree=delta_k(k),
            )
            out += [(g, k, m) for g in enumerate_graphs(config)]
    out += [(graph6_decode(code), 9, 5) for code in P9_K5_N9_INPUTS]
    for n in range(7, 17):
        for k, m in ((7, 4), (7, 5), (8, 4), (9, 5), (10, 6)):
            if n >= k:
                out.append((h_extremal(n, m, k), k, m))
        for k in (7, 9):
            if n >= k and (n - 1) % delta_k(k) == 0:
                out.append((g1(n, k), k, delta_k(k) + 2))
        for n1 in range(3, n - 2, 2):
            if n + 1 - n1 >= 4:
                out += [(g4(n1, n + 1 - n1), 7, 4), (g5(n1, n + 1 - n1), 7, 4)]
        if n >= 10 and n % 2 == 0:
            matching = copies((n - 2) // 2, primitive("complete", 2))
            out.append((join(primitive("empty", 2), matching), 9, 4))
            out.append((join(primitive("complete", 2), matching), 9, 5))
    return out


def test_class1_witness_matches_combinations():
    """The branch and bound returns the first passing set that a scan of
    itertools.combinations meets, or None when that scan meets none, on
    random graphs with every set size, clique bound and edge limit."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 9)
        g = make_graph(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.6]
        )
        size, m, limit = rng.randint(0, n + 1), rng.randint(2, 5), rng.randint(0, 2)
        want = None
        for subset in combinations(range(n), size):
            outside = induced(g, [v for v in range(n) if v not in subset])
            if outside.edge_count() <= limit and not has_clique(
                induced(g, subset), m - 1
            ):
                want = frozenset(subset)
                break
        assert _class1_witness(g, size, m, limit) == want, (graph6_encode(g), size)


def test_class_table_matches_reference():
    """The tables give the class and witness of the chain of tests they
    replaced, hold each code's first candidate in precedence order (G1
    and G2 in the early table, the rest in the late one), are built only
    for inputs past Class 1, and hand out fresh witnesses."""
    clear_cache()
    classify_structure(h_extremal(9, 4, 8), 8, 4)
    assert class_table.cache_info().currsize == 0
    inputs = _classifier_inputs()
    tags = set()
    for g, k, m in inputs:
        got = classify_structure(g, k, m)
        assert (got.class_tag, got.witness) == _reference_classify(g, k, m)
        tags.add(got.class_tag)
    assert len(inputs) > 200 and len(tags) == 8
    early = (StructureClass.CLASS2_G1, StructureClass.CLASS2_G2)
    for n, k, m in {(g.n, k, m) for g, k, m in inputs}:
        want: dict = {False: {}, True: {}}
        for tag, witness, cand in _reference_candidates(n, k, m):
            want[tag not in early].setdefault(canonical(cand), (tag, witness))
        for late in (False, True):
            got = class_table(n, k, m, late)
            assert list(got.items()) == list(want[late].items())
    out = classify_structure(g4(5, 5), 7, 4)
    out.witness["n1"] = 0
    assert classify_structure(g4(5, 5), 7, 4).witness == {"n1": 5, "n2": 5}
    clear_cache()
    assert class_table.cache_info().currsize == 0


def test_g1_g2_inputs_never_enumerate_g3_blocks(monkeypatch):
    """Every order that admits G2 admits G3, but a G1 or G2 input is found
    in the early table and never enumerates the G3 blocks, as the chain of
    tests returned before reaching them.  For k = 21 the blocks have
    delta_k + 2 = 11 vertices, over the enumeration cap."""
    clear_cache()

    def no_blocks(k, m):
        raise AssertionError("G3 blocks enumerated")

    monkeypatch.setattr("pathclique.oracle.g3_block_family", no_blocks)
    out = classify_structure(g2(7, 13, 15), 15, 8)
    assert (out.class_tag, out.witness) == (
        StructureClass.CLASS2_G2,
        {"n1": 7, "n2": 13, "k": 15},
    )
    out = classify_structure(g1(19, 15), 15, 8)
    assert (out.class_tag, out.witness) == (
        StructureClass.CLASS2_G1,
        {"n": 19, "k": 15},
    )
    assert class_table.cache_info().currsize == 2
    monkeypatch.undo()
    # the smallest k = 21 member has C(29, 9) ≈ 10 M candidate Class 1
    # witness sets; the branch and bound rules them out in milliseconds
    start = time.monotonic()
    out = classify_structure(g2(10, 19, 21), 21, 11)
    assert time.monotonic() - start < 10
    assert (out.class_tag, out.witness) == (
        StructureClass.CLASS2_G2,
        {"n1": 10, "n2": 19, "k": 21},
    )
    clear_cache()
