import hashlib
import random
import time

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from pathclique.canon import canonical, canonical_with_generators
from pathclique.constructions import double_star, h_extremal, turan, turan_union
from pathclique.detect import (
    count_cliques,
    has_clique,
    has_path,
    is_2connected,
    is_connected,
    is_free,
    rooted_path_sets,
)
from pathclique.formulas import ParameterError, TheoremParams, turan_cliques
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import Graph, make_graph, primitive, relabel
from pathclique.oracle import (
    CAP_ENV_VAR,
    BudgetExceeded,
    CapExceeded,
    EnumerationConfig,
    _attachable_masks,
    _levels,
    _max_degree_masks,
    _paths_clash,
    clear_cache,
    disintegrate,
    enumerate_graphs,
    ex_oracle,
    g3_block_family,
    valid_attach_vertices,
    verify_classification,
    verify_theorem,
)

UNCONSTRAINED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# OEIS A006785: triangle-free graphs on n unlabelled vertices
TRIANGLE_FREE_COUNTS = [1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172]
# OEIS A001349: connected graphs on n unlabelled vertices
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
# P_4-free graphs are disjoint unions of stars and triangles: partitions of
# n in which the part 3 comes in two kinds (K_{1,2} and K_3), n = 0..10
P4_FREE_COUNTS = [1, 1, 2, 4, 6, 9, 15, 21, 31, 45, 63]
# sha256 of the graph6 level lists ("<order> <code>" lines, levels 0..n),
# recorded before attachment masks were decided from their small subsets
LEVEL_DIGESTS = {
    (5, 3, 9): "482b228a50db11fa3f9a2c0d5ec140f742da140345ed41892dddbe96756c8f9f",
    (6, 4, 9): "0c4886a38b2df26b5b12838dd4bdfcb59c3f8781e0d4e8cdf585c31ebeb1042d",
    (7, 4, 9): "86497718268e7ce3f4744f72e40597371bf1ba14223b19c1b909b6828966a0be",
    (8, 5, 8): "a049fe912b386c96c131a258a6744221498f27462d4f34d692ecb748a5eedc3f",
}
# (forbid_path, forbid_clique, n) cells checked mask by mask against the
# rule on every parent below order n
RULE_CELLS = [
    (5, 3, 8), (6, 4, 8), (7, 4, 8), (8, 5, 8), (6, None, 8), (None, 4, 8), (10, 4, 7),
]


def test_unconstrained_counts():
    for n, want in UNCONSTRAINED_COUNTS.items():
        assert len(enumerate_graphs(EnumerationConfig(n=n))) == want


def test_oeis_triangle_free_counts():
    for n, want in enumerate(TRIANGLE_FREE_COUNTS, start=1):
        assert len(enumerate_graphs(EnumerationConfig(n=n, forbid_clique=3))) == want


def test_oeis_connected_counts():
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        config = EnumerationConfig(n=n, connected_only=True)
        assert len(enumerate_graphs(config)) == want


def test_path_only_closed_forms():
    # P_3-free graphs are matchings plus isolated vertices
    for n in range(11):
        assert len(enumerate_graphs(EnumerationConfig(n=n, forbid_path=3))) == n // 2 + 1
    for n, want in enumerate(P4_FREE_COUNTS):
        assert len(enumerate_graphs(EnumerationConfig(n=n, forbid_path=4))) == want


def test_degenerate_parameters():
    # P_1 and K_1 are single vertices, so only the empty graph avoids them;
    # P_2 and K_2 are single edges, so only the edgeless graphs avoid them
    for k, m, want in [(1, None, 0), (None, 1, 0), (2, None, 1), (None, 2, 1),
                       (2, 5, 1), (5, 2, 1)]:
        sizes = [
            len(enumerate_graphs(EnumerationConfig(n=n, forbid_path=k, forbid_clique=m)))
            for n in range(11)
        ]
        assert sizes == [1] + [want] * 10, (k, m)


def test_level_lists_byte_identical():
    for (k, m, n), want in LEVEL_DIGESTS.items():
        lines = []
        for order in range(n + 1):
            config = EnumerationConfig(n=order, forbid_path=k, forbid_clique=m)
            lines += [f"{order} {graph6_encode(g)}" for g in enumerate_graphs(config)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want, (k, m, n)


def _orbit_minima(i: int, gens: tuple) -> list[int]:
    """The least member of the orbit of each subset of 0..i-1 under gens
    (union-find over every mask, as enumeration did before the mask rule)."""
    parent = list(range(1 << i))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in gens:
        for mask in range(1 << i):
            img = 0
            for u in range(i):
                if (mask >> u) & 1:
                    img |= 1 << a[u]
            ra, rb = find(mask), find(img)
            parent[max(ra, rb)] = min(ra, rb)
    return [find(mask) for mask in range(1 << i)]


def _with_new_vertex(g: Graph, mask: int) -> Graph:
    rows = [r | (1 << g.n) if (mask >> u) & 1 else r for u, r in enumerate(g.rows)]
    return Graph(g.n + 1, tuple(rows) + (mask,))


def test_mask_rule_matches_unpruned_extension():
    """The pruned enumeration against an unpruned one kept here.

    For every parent on fewer than n vertices and every mask, the rule keeps
    the mask iff the whole candidate graph has no P_k and no K_m.  The
    candidate is checked once per orbit of masks: the parent's generators
    are automorphisms, so all candidates of an orbit are isomorphic.  Each
    level to n must hold the same graphs and codes as the one built from
    the level below by labelling every free orbit representative
    canonically, with no degree filter.  Which candidate reaches a code
    first depends on the filter, so the stored generators may differ;
    they must be automorphisms of the stored graph."""
    for k, m, n in RULE_CELLS:
        levels = _levels(k, m, n)
        for i in range(n):
            out = {}
            for g, gens, code in levels[i]:
                minima = _orbit_minima(i, gens)
                free = {}
                for rep in sorted(set(minima)):
                    cand = _with_new_vertex(g, rep)
                    free[rep] = (m is None or not has_clique(cand, m)) and (
                        k is None or not has_path(cand, k)
                    )
                    if free[rep]:
                        cf, _cgens = canonical_with_generators(cand)
                        out.setdefault(graph6_encode(cf), cf)
                want = [mask for mask in range(1 << i) if free[minima[mask]]]
                assert _attachable_masks(g, k, m) == want, (k, m, code)
            got = [(cf, c) for cf, _cgens, c in levels[i + 1]]
            assert got == [(out[c], c) for c in sorted(out)], (k, m, i + 1)
            for cf, cgens, c in levels[i + 1]:
                for a in cgens:
                    assert relabel(cf, list(a)) == cf, (k, m, c)


def _paths_from(g: Graph, u: int) -> dict[int, int]:
    """The vertex set of every path that starts at u, mapped to the
    bitmask of its end vertices, by plain DFS."""
    out: dict[int, int] = {}

    def dfs(v: int, visited: int) -> None:
        out[visited] = out.get(visited, 0) | 1 << v
        for x in range(g.n):
            if g.rows[v] >> x & 1 and not visited >> x & 1:
                dfs(x, visited | 1 << x)

    dfs(u, 1 << u)
    return out


def test_rooted_path_checks_match_child_searches():
    """The rooted path checks of _attachable_masks against whole-child
    searches: u is bad (rooted_path_sets gives None) iff g + v({u}) has a
    P_k, and two good vertices clash (_paths_clash) iff g + v({u, w}) has
    a P_k.  On every parent of the rule cells, of the P_2- and P_3-free
    levels to n = 6, and on random P_k-free graphs with 4 <= k <= 10 on
    up to 11 vertices, where the search levels (path sets and their end
    vertices) are also checked against a plain DFS."""
    verdicts = {"bad": 0, "clash": 0, "free pair": 0}

    def check(g: Graph, k: int) -> None:
        sets = [rooted_path_sets(g, u, k) for u in range(g.n)]
        for u in range(g.n):
            bad = has_path(_with_new_vertex(g, 1 << u), k)
            assert (sets[u] is None) == bad, (graph6_encode(g), k, u)
            verdicts["bad"] += bad
        good = [u for u in range(g.n) if sets[u] is not None]
        for b, w in enumerate(good):
            for u in good[:b]:
                clash = has_path(_with_new_vertex(g, 1 << u | 1 << w), k)
                assert _paths_clash(sets[u], sets[w], k) == clash, (
                    graph6_encode(g), k, u, w,
                )
                verdicts["clash" if clash else "free pair"] += 1

    cells = [(k, m, n - 1) for k, m, n in RULE_CELLS if k is not None]
    for k, m, n in cells + [(2, None, 6), (3, None, 6)]:
        for level in _levels(k, m, n):
            for g, _gens, _code in level:
                check(g, k)
    rng = random.Random(3)
    tried = 0
    while tried < 300:
        n, k = rng.randint(4, 11), rng.randint(4, 10)
        density = rng.choice((0.15, 0.25, 0.35))
        g = make_graph(
            n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density]
        )
        if has_path(g, k):
            continue
        tried += 1
        check(g, k)
        for u in range(n):
            sizes: dict[int, dict[int, int]] = {}
            for path, ends in _paths_from(g, u).items():
                sizes.setdefault(path.bit_count(), {})[path] = ends
            got = rooted_path_sets(g, u, k)
            if max(sizes) >= k - 1:
                assert got is None, (graph6_encode(g), k, u)
            else:
                want = [sizes[size] for size in range(1, max(sizes) + 1)]
                assert got == want, (graph6_encode(g), k, u)
    assert min(verdicts.values()) > 1000, verdicts


def test_max_degree_masks():
    """For every parent of the rule cells' levels below n, the degree
    filter keeps exactly the attachable masks whose new vertex has maximum
    degree in the child, and what it keeps is closed under the parent's
    generators, as _subset_orbits needs."""
    for k, m, n in RULE_CELLS:
        for i, level in enumerate(_levels(k, m, n - 1)):
            for g, gens, code in level:
                masks = _attachable_masks(g, k, m)
                kept = _max_degree_masks(g, masks)
                # deg(u) + [u in M] in the child against |M| for the new vertex
                degs = g.degrees()
                want = [
                    mask
                    for mask in masks
                    if all(
                        d + (mask >> u & 1) <= mask.bit_count()
                        for u, d in enumerate(degs)
                    )
                ]
                assert kept == want, (k, m, code)
                members = set(kept)
                for mask in kept:
                    for a in gens:
                        img = sum(1 << a[u] for u in range(i) if (mask >> u) & 1)
                        assert img in members, (k, m, code, mask)


def test_levels_stop_at_the_order_asked():
    _levels(7, 4, 8)
    assert len(_levels(7, 4, 6)) == 7
    assert len(_levels(7, 4, 8)) == 9


def _group_order(n: int, gens) -> int:
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


def _nx_graph(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _nx_automorphism_count(g: Graph) -> int:
    """|Aut(g)| by networkx alone, as the product of orbit sizes along a
    chain of point stabilisers: w is in the orbit of v under the
    stabiliser of the points fixed so far iff some colour-preserving
    isomorphism maps v to w."""
    G, H = _nx_graph(g), _nx_graph(g)
    colour = dict.fromkeys(range(g.n), 0)
    order = 1
    for v in range(g.n):
        size = 0
        for w in range(g.n):
            if colour[w] or G.degree(w) != G.degree(v):
                continue
            nx.set_node_attributes(G, {**colour, v: -1}, "c")
            nx.set_node_attributes(H, {**colour, w: -1}, "c")
            matcher = GraphMatcher(G, H, node_match=lambda a, b: a["c"] == b["c"])
            size += matcher.is_isomorphic()
        order *= size
        colour[v] = v + 1
    return order


def test_generators_generate_the_automorphism_group():
    """The stored generators generate all of Aut(G), not just a subgroup:
    the order of the group they generate equals the automorphism count
    from networkx, for every graph in the levels to n = 7 of (7, 4),
    (5, 3) and (-, 4) and for the structured graphs on 10 vertices that
    the benchmark labels (direct counting would list all 80,640
    automorphisms of K_{2,8}, so those are counted by stabilisers)."""
    checked = 0
    for k, m in ((7, 4), (5, 3), (None, 4)):
        for level in _levels(k, m, 7):
            for g, gens, code in level:
                matcher = GraphMatcher(_nx_graph(g), _nx_graph(g))
                count = sum(1 for _ in matcher.isomorphisms_iter())
                assert _group_order(g.n, gens) == count, (k, m, code)
                checked += 1
    assert checked == 1341
    structured = [h_extremal(10, m, k) for k, m in ((7, 4), (8, 5), (10, 4), (9, 6))]
    structured += [turan(10, p) for p in (2, 3, 5)] + [double_star(5, 5)]
    for g in structured:
        _cf, gens = canonical_with_generators(g)
        assert _group_order(g.n, gens) == _nx_automorphism_count(g)


def test_enumeration_isomorph_free_and_exact():
    got = enumerate_graphs(EnumerationConfig(n=5, forbid_path=4))
    codes = {canonical(g) for g in got}
    assert len(codes) == len(got)
    # cross-check against filtering the full level
    want = [g for g in enumerate_graphs(EnumerationConfig(n=5)) if is_free(g, 4, 65)]
    assert len(want) == len(got)


def test_final_filters():
    base = enumerate_graphs(EnumerationConfig(n=6, forbid_path=5))
    conn = enumerate_graphs(EnumerationConfig(n=6, forbid_path=5, connected_only=True))
    assert [g for g in base if is_connected(g)] == conn
    md = enumerate_graphs(EnumerationConfig(n=6, forbid_path=5, min_degree=1))
    assert [g for g in base if g.min_degree() >= 1] == md
    em = enumerate_graphs(EnumerationConfig(n=6, forbid_path=5, edge_maximal=True))
    assert set(em) <= set(base)
    # max edge count is attained inside the edge-maximal subset
    assert max(g.edge_count() for g in em) == max(g.edge_count() for g in base)


def test_edge_maximal_against_the_level():
    """The edge_maximal filter keeps exactly the graphs g of the level on n
    vertices for which g + e is outside the class for every non-edge e,
    that is, canonical(g + e) is not among the level's codes."""
    cells = [(5, None, 7), (5, 3, 7), (6, 4, 7), (None, 4, 6), (4, None, 6)]
    cells += [(3, None, 6), (None, 3, 6), (None, None, 5), (4, 3, 7)]
    # n = k, where g + uv may hold a P_k, and n < k, where it cannot
    cells += [(6, 4, 6), (8, 4, 6)]
    for k, m, n in cells:
        level = _levels(k, m, n)[n]
        codes = {code for _g, _gens, code in level}
        want = []
        for g, _gens, _code in level:
            edges = list(g.edges())
            grown = [
                make_graph(n, edges + [(u, v)])
                for u in range(n)
                for v in range(u)
                if not g.has_edge(u, v)
            ]
            if all(
                graph6_encode(canonical_with_generators(h)[0]) not in codes
                for h in grown
            ):
                want.append(g)
        config = EnumerationConfig(
            n=n, forbid_path=k, forbid_clique=m, edge_maximal=True
        )
        assert enumerate_graphs(config) == want, (k, m, n)
        assert 0 < len(want) < len(level), (k, m, n)


def test_cap_enforcement(monkeypatch):
    with pytest.raises(CapExceeded):
        EnumerationConfig(n=11, forbid_path=5)
    with pytest.raises(CapExceeded):
        EnumerationConfig(n=9)  # unconstrained runs stop at 8
    monkeypatch.setenv(CAP_ENV_VAR, "6")
    with pytest.raises(CapExceeded):
        EnumerationConfig(n=7, forbid_path=5)
    monkeypatch.setenv(CAP_ENV_VAR, "99")  # bounded back down to 10
    with pytest.raises(CapExceeded):
        EnumerationConfig(n=11, forbid_path=5)
    monkeypatch.setenv(CAP_ENV_VAR, "up")
    with pytest.raises(ParameterError):
        EnumerationConfig(n=5, forbid_path=5)


def test_ex_oracle_zykov_spot():
    for n in (5, 6):
        for m in (3, 4):
            for r in range(2, m):
                res = ex_oracle(n, None, m, r)
                assert res.value == turan_cliques(n, m - 1, r)
                assert canonical(turan(n, m - 1)) == canonical(
                    graph6_decode(res.witness)
                )
                assert len(res.extremal) == 1


def test_ex_oracle_erdos_gallai_spot():
    for n in (6, 7, 8):
        for k in (4, 5):
            res = ex_oracle(n, k, None, 2)
            assert 2 * res.value <= (k - 2) * n
            assert (2 * res.value == (k - 2) * n) == (n % (k - 1) == 0)


def test_ex_oracle_validation():
    with pytest.raises(ParameterError):
        ex_oracle(6, 5, 3, 1)


def test_disintegrate_examples():
    tri_pendant = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    tr = disintegrate(tri_pendant, 2)
    assert tr.deleted == (3,) and tr.core_size == 3 and not tr.stuck
    assert canonical(tr.core) == canonical(primitive("complete", 3))
    tr = disintegrate(primitive("star", 7), 2)
    assert tr.core_size == 0 and not tr.stuck
    tr = disintegrate(h_extremal(12, 4, 8), 3)
    assert tr.deleted == () and tr.core_size == 12


def test_disintegrate_lowest_label_first():
    tr = disintegrate(primitive("path", 5), 2)
    # both ends qualify; 0 goes first, then the chain collapses from both ends
    assert tr.deleted[0] == 0
    assert tr.core_size == 0


def test_disintegrate_preserve_connectivity():
    # two K_4 end blocks joined through a degree-2 middle vertex: only the
    # middle vertex has low degree but it is outside every end block, so
    # the connectivity-preserving mode gets stuck while plain mode deletes
    # it and keeps both K_4s
    k4a = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    k4b = [(u + 4, v + 4) for u, v in k4a]
    g = make_graph(9, k4a + k4b + [(3, 8), (8, 4)])
    tr = disintegrate(g, 3, preserve_connectivity=True)
    assert tr.stuck
    assert tr.core_size == 9
    plain = disintegrate(g, 3)
    assert plain.deleted == (8,) and plain.core_size == 8


def test_g3_block_family():
    fam = g3_block_family(5, 4)
    assert len(fam) == 1
    assert canonical(fam[0]) == canonical(primitive("complete", 3))
    fam = g3_block_family(7, 5)
    codes = {canonical(g) for g in fam}
    k4 = primitive("complete", 4)
    k4_minus = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert codes == {
        canonical(primitive("cycle", 4)),
        canonical(k4_minus),
        canonical(k4),
    }
    fam = g3_block_family(7, 4)  # K_4 drops out
    assert {canonical(g) for g in fam} == {
        canonical(primitive("cycle", 4)),
        canonical(k4_minus),
    }
    assert all(is_2connected(g) for g in fam)
    assert all(valid_attach_vertices(g, 2) for g in fam)
    with pytest.raises(ParameterError):
        g3_block_family(6, 4)


def test_verify_theorem_star_cell():
    rows = verify_theorem(TheoremParams(4, 3, 2), range(4, 8), "connected")
    assert all(r.status == "EQUAL" for r in rows)
    assert all(r.extremal_match == "exact" for r in rows)
    for r in rows:
        assert len(r.witnesses) == 1
        assert canonical(graph6_decode(r.witnesses[0])) == canonical(
            primitive("star", r.n)
        )


def test_verify_theorem_case2_all():
    rows = verify_theorem(TheoremParams(5, 3, 2), range(6, 9), "all")
    byn = {r.n: r for r in rows}
    assert byn[8].status == "EQUAL"
    assert canonical(turan_union(8, 5, 3)).decode() in byn[8].witnesses
    assert byn[6].status == "BOUND_RESPECTED"
    assert byn[7].status == "BOUND_RESPECTED"
    for r in rows:
        for code in r.witnesses:
            assert is_free(graph6_decode(code), 5, 3)


def test_verify_theorem_scope_validation():
    with pytest.raises(ParameterError):
        verify_theorem(TheoremParams(4, 3, 2), range(4, 6), "weird")


def test_verify_classification_small():
    report = verify_classification(5, 3, range(5, 8))
    assert report["ok"] and report["unclassified"] == []
    assert sum(report["histogram"].values()) == report["total"] > 0


def test_verify_classification_has_class3():
    # the smallest composites matching only class (3) appear at n = 9;
    # smaller ones are caught earlier by the fixed class order
    report = verify_classification(7, 4, range(7, 10))
    assert report["ok"]
    assert "Class3-G4" in report["histogram"] or "Class3-G5" in report["histogram"]


def test_enumerated_graphs_satisfy_constraints():
    for g in enumerate_graphs(EnumerationConfig(n=7, forbid_path=6, forbid_clique=4)):
        assert is_free(g, 6, 4)


def test_time_budget_overshoot_and_recovery():
    # from a cold cache the triangle-free levels up to 9 take well under
    # the budget and level 10 takes seconds, so the deadline passes while
    # the last level is built: a check made only between levels would not
    # fire at all
    clear_cache()
    budget = 1.0
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        ex_oracle(10, None, 3, 2, time_budget_s=budget)
    assert time.monotonic() - t0 < budget + 2.0
    stats = info.value.stats
    done = stats["completed_levels"]
    assert len(stats["level_sizes"]) == done + 1
    # the interrupted level was not cached half-built
    config = EnumerationConfig(n=done + 1, forbid_clique=3)
    resumed = enumerate_graphs(config)
    clear_cache()
    assert enumerate_graphs(config) == resumed
