import functools
import hashlib
import json
import random
import time
from dataclasses import replace
from itertools import combinations

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from pathclique import cli, detect, oracle
from pathclique.canon import canonical, canonical_with_generators
from pathclique.constructions import double_star, h_extremal, turan, turan_union
from pathclique.detect import (
    class_table,
    classify_structure,
    count_cliques,
    has_clique,
    has_clique_in,
    has_path,
    is_2connected,
    is_connected,
    is_free,
    longest_path_order,
    rooted_path_sets,
)
from pathclique.formulas import ParameterError, TheoremParams, turan_cliques
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import Graph, iter_bits, make_graph, primitive, relabel
from pathclique.oracle import (
    CAP_ENV_VAR,
    BudgetExceeded,
    CapExceeded,
    EnumerationConfig,
    Enumerator,
    _ENUMERATOR,
    _attachable_masks,
    _degree_masks,
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
# sha256 of the look-ahead chains for (k, m, n, δ) ("<order> <code>" lines,
# levels n - δ + 1..n), recorded before the vertices every kept mask must
# hold were decided first
FILTERED_DIGESTS = {
    (7, 4, 10, 2): "f3f548245de2642abe5a87ebbd6e3da124dffcf4094b1b2ba43aec7ca07a3b3b",
    (6, 4, 9, 2): "abd7f471afd5b5b524ac4a22a42b684988a6c8a77982d6b179efc373fcef31a2",
    (5, 3, 9, 1): "5e837961b473148b8abe4adc7bc55f99f41ad4e1e43dccc25e21b63887d98e8f",
    (None, 3, 8, 2): "6e1793e50165975e10c15f9822ad4a82c811a87c3a8c72e032c7839268798c95",
}
# sha256 of `oracle` stdout and of the `data` section of `verify` JSON,
# recorded while every class of the top order was still labelled
EXTREMAL_DIGESTS = {
    "oracle --n 7 --k 7 --m 4 --r 2 --connected":
        "311d1a80a6cdcf3658bac96ae9d2e1ad49ffe438006e01e0dbf54e9e0d502ccf",
    "oracle --n 7 --k 7 --m 4 --r 3":
        "b37bec261410f13b0f240e2dd31fda43ad327c09ce0efc7ddfcd53d607921617",
    "oracle --n 8 --k 7 --m 4 --r 2 --connected":
        "199924c44c09f8384f4ea6a7b9bb69c9484e65c52ac7863729570794e235b94f",
    "oracle --n 8 --k 7 --m 4 --r 3":
        "85daa0414b037b5dfb29684ce7034401c9d02653001bf686996400f9f4132624",
    "oracle --n 9 --k 7 --m 4 --r 2 --connected":
        "d932ee6ed147dae16cd5b8188dd3bf424444f8b14c7d516ef9eafd2475003348",
    "oracle --n 9 --k 7 --m 4 --r 3":
        "2a5b8abfae4e4ca8f18a3450bb50b8bcd895e205bde92efcf1ffcf9972b9cc42",
    "oracle --n 10 --k 7 --m 4 --r 2 --connected":
        "c9674e1e70c5218991c75124f2325adfa7c73b0df95beb0061c11a96b8078c17",
    "oracle --n 10 --k 7 --m 4 --r 3":
        "f4e4c62275ba753eb5f49fa97b54b733e24562ecd6e3126642d66dda0421b31b",
    "verify --k 7 --m 4 --r 2 --n 7..10 --connected":
        "f1bfabf43de514e55edd0e4abf4f64337ab3224fd9d2f548a14ed5e0766365e4",
    "verify --k 7 --m 4 --r 3 --n 7..10 --scope all":
        "49149690ccee9f282f70c163cecdac0d7ad6fe871227e521fe89223c788ce525",
    "oracle --n 8 --m 3 --r 3":
        "9af9cb7b84e9861bf2448e566e55df3b24e7d97f774e56d0e6778e121a5271e7",
    "oracle --n 8 --k 6 --r 2":
        "a9ab59b6f39124ce35ad6a242097d665de4eefc6d5f88d7ad512299c61c9ce14",
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


def test_filtered_levels_byte_identical():
    for (k, m, n, delta), want in FILTERED_DIGESTS.items():
        _ENUMERATOR.chain(k, m, n, delta, None)
        tail = _ENUMERATOR.filtered[(k, m, n, delta)]
        lines = [
            f"{n - delta + 1 + j} {code}"
            for j, level in enumerate(tail)
            for _g, _gens, code in level
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == want, (k, m, n, delta)


def test_extremal_outputs_byte_identical(capsys):
    for argv, want in EXTREMAL_DIGESTS.items():
        assert cli.main(argv.split()) == 0, argv
        out = capsys.readouterr().out
        if argv.startswith("verify"):
            out = json.dumps(json.loads(out)["data"], sort_keys=True)
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


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
        levels = _ENUMERATOR.levels(k, m, n)
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


@functools.cache
def _child_verdicts(g: Graph, k: int) -> tuple[int, dict[tuple[int, int], bool]]:
    """The verdicts of g for P_k from whole children: the bitmask of the
    vertices u with a P_k in g + v({u}), and for each pair u < w of the
    other vertices whether g + v({u, w}) has one."""
    bad = sum(1 << u for u in range(g.n) if has_path(_with_new_vertex(g, 1 << u), k))
    good = [u for u in range(g.n) if not bad >> u & 1]
    clash = {
        (u, w): has_path(_with_new_vertex(g, 1 << u | 1 << w), k)
        for b, w in enumerate(good)
        for u in good[:b]
    }
    return bad, clash


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
        bad, clashes = _child_verdicts(g, k)
        for u in range(g.n):
            assert (sets[u] is None) == bool(bad >> u & 1), (graph6_encode(g), k, u)
            verdicts["bad"] += bad >> u & 1
        for (u, w), clash in clashes.items():
            assert _paths_clash(sets[u], sets[w], k) == clash, (graph6_encode(g), k, u, w)
            verdicts["clash" if clash else "free pair"] += 1

    cells = [(k, m, n - 1) for k, m, n in RULE_CELLS if k is not None]
    for k, m, n in cells + [(2, None, 6), (3, None, 6)]:
        for level in _ENUMERATOR.levels(k, m, n):
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


def _look_ahead(g: Graph, bound: int) -> tuple[int, int]:
    """need and size as _extend reads them: the vertices of degree <
    bound, and the least mask size that passes the degree tests."""
    degs = g.degrees()
    need = sum(1 << u for u, d in enumerate(degs) if d < bound)
    return need, max(max(degs, default=0), bound)


def test_max_degree_masks():
    """For every parent of the rule cells' levels below n, the masks that
    _extend keeps (_attachable_masks with need and size, then the degree
    filter) are exactly the attachable masks whose new vertex has maximum
    degree in the child, and, with a bound b from 1 to the parent's min
    degree + 1, those whose child also has min degree >= b.  What it
    keeps is closed under the parent's generators, as
    _orbit_representatives needs."""
    bounded = 0
    for k, m, n in RULE_CELLS:
        for i, level in enumerate(_ENUMERATOR.levels(k, m, n - 1)):
            for g, gens, code in level:
                masks = _attachable_masks(g, k, m)
                # deg(u) + [u in M] in the child against |M| for the new vertex
                degs = g.degrees()
                for b in range(g.min_degree() + 2):
                    kept = _degree_masks(g, _attachable_masks(g, k, m, *_look_ahead(g, b)))
                    want = [
                        mask
                        for mask in masks
                        if all(
                            b <= d + (mask >> u & 1) <= mask.bit_count()
                            for u, d in enumerate(degs)
                        )
                        and mask.bit_count() >= b
                    ]
                    assert kept == want, (k, m, code, b)
                    members = set(kept)
                    for mask in kept:
                        for a in gens:
                            img = sum(1 << a[u] for u in range(i) if (mask >> u) & 1)
                            assert img in members, (k, m, code, b, mask)
                    bounded += len(kept) if b else 0
    assert bounded > 1000


# (forbid_path, forbid_clique, orders) cells of the look-ahead test
LOOK_AHEAD_CELLS = [
    (7, 4, range(7, 10)), (6, 4, range(6, 10)), (5, 3, range(5, 10)),
    (5, None, range(5, 9)), (None, 3, range(5, 9)), (4, 3, range(0, 5)),
]


def test_look_ahead_matches_filtering_afterwards():
    """enumerate_graphs with min_degree δ, which prunes by look-ahead from
    the unfiltered level n - δ, returns exactly the unfiltered level n
    filtered afterwards, with and without connected_only; one cell is
    path-only, one clique-only, and one runs n below δ + 1."""
    kept = 0
    for k, m, orders in LOOK_AHEAD_CELLS:
        for n in orders:
            full = [g for g, _gens, _code in _ENUMERATOR.levels(k, m, n)[n]]
            for delta in (1, 2, 3):
                for connected in (False, True):
                    want = [
                        g
                        for g in full
                        if g.min_degree() >= delta and (not connected or is_connected(g))
                    ]
                    config = EnumerationConfig(
                        n=n, forbid_path=k, forbid_clique=m,
                        connected_only=connected, min_degree=delta,
                    )
                    assert enumerate_graphs(config) == want, (k, m, n, delta, connected)
                    kept += len(want)
    assert kept > 1000


def _parents(cells: list, chains: list) -> list:
    """(k, m, graph) for every parent of the unfiltered levels below n of
    cells and of the filtered chains for δ = 1, 2, 3 (every level but the
    last), each graph once per (k, m)."""
    out = {}
    for k, m, n in cells:
        for level in _ENUMERATOR.levels(k, m, n - 1):
            out.update(((k, m, code), g) for g, _gens, code in level)
    for k, m, orders in chains:
        for n in orders:
            for delta in range(1, min(n, 4)):
                _ENUMERATOR.chain(k, m, n, delta, None)
                levels = _ENUMERATOR.levels(k, m, n - delta)[-1:]
                levels += _ENUMERATOR.filtered[(k, m, n, delta)][:-1]
                for level in levels:
                    out.update(((k, m, code), g) for g, _gens, code in level)
    return [(k, m, g) for (k, m, _code), g in out.items()]


def _twin_classes_by_definition(g: Graph) -> list[int]:
    """The twin classes of g as bitmasks, ascending by their lowest vertex:
    u and w are twins when N(u) - {w} = N(w) - {u}."""
    out: list[int] = []
    for v in range(g.n):
        for i, members in enumerate(out):
            u = (members & -members).bit_length() - 1
            if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u):
                out[i] |= 1 << v
                break
        else:
            out.append(1 << v)
    return out


@functools.cache
def _rooted_verdicts(g: Graph, k) -> tuple[int, tuple[int, ...]]:
    """The verdicts of g for P_k from one rooted search per vertex and a
    comparison of every pair: the bitmask of the bad vertices, and for
    each vertex u the good vertices w != u whose paths clash with u's.
    With no k, or fewer than k - 1 vertices, nothing is bad or clashes."""
    paths: list = [[]] * g.n
    if k is not None and g.n >= k - 1:
        paths = [rooted_path_sets(g, u, k) for u in range(g.n)]
    bad = sum(1 << u for u, sets in enumerate(paths) if sets is None)
    clash = tuple(
        sum(
            1 << w
            for w in range(g.n)
            if w != u and paths[u] and paths[w] and _paths_clash(paths[u], paths[w], k)
        )
        for u in range(g.n)
    )
    return bad, clash


def test_required_vertices_decided_first(monkeypatch):
    """_attachable_masks with need and size, for every parent of the rule
    cells' levels and of the look-ahead cells' filtered chains and every
    bound b from 0 to the parent's min degree + 1, returns the unpruned
    masks that hold need and have at least size vertices.

    Twins share their verdicts, so each call searches only the lowest
    vertex of a twin class and, for a class of two or more, its second
    lowest, each at most once, and compares each pair of classes (a class
    with itself: its two lowest vertices) at most once.

    Where no mask can be kept, it stops early, and each early exit is
    seen to fire, by the searches and comparisons it makes: at a bad
    vertex of need, only the lowest vertex of each twin class of need up
    to it is searched and no pair is compared; at a clash inside need,
    only pairs inside need are compared; with too few allowed vertices,
    no pair outside need is."""
    parents = _parents(RULE_CELLS, LOOK_AHEAD_CELLS)
    searched: list[int] = []
    compared: list[tuple[int, int]] = []
    owner: dict[int, int] = {}

    def search(g, u, k):
        searched.append(u)
        sets = rooted_path_sets(g, u, k)
        owner[id(sets)] = u
        return sets

    def compare(su, sw, k):
        compared.append((owner[id(su)], owner[id(sw)]))
        return _paths_clash(su, sw, k)

    monkeypatch.setattr(oracle, "rooted_path_sets", search)
    monkeypatch.setattr(oracle, "_paths_clash", compare)
    exits = {"bad": 0, "pair": 0, "size": 0}
    for k, m, g in parents:
        full = _attachable_masks(g, k, m)
        bad, clash = _rooted_verdicts(g, k)
        # rank[u]: u's place in its twin class; lowest[u]: the class's lowest vertex
        rank, lowest = [0] * g.n, [0] * g.n
        for members in _twin_classes_by_definition(g):
            for place, u in enumerate(u for u in range(g.n) if (members >> u) & 1):
                rank[u], lowest[u] = place, (members & -members).bit_length() - 1
        for b in range(g.min_degree() + 2):
            need, size = _look_ahead(g, b)
            searched.clear()
            compared.clear()
            got = _attachable_masks(g, k, m, need, size)
            want = [mask for mask in full if mask & need == need and mask.bit_count() >= size]
            assert got == want, (k, m, graph6_encode(g), b)
            assert len(set(searched)) == len(searched), searched
            assert all(rank[u] <= 1 for u in searched), searched
            pairs = [frozenset((lowest[u], lowest[w])) for u, w in compared]
            assert len(set(pairs)) == len(pairs), compared
            allowed = [u for u in range(g.n) if not (bad >> u) & 1 and not clash[u] & need]
            if need & bad:
                first = (need & bad & -(need & bad)).bit_length() - 1
                assert searched == [
                    u for u in range(first + 1) if (need >> u) & 1 and not rank[u]
                ]
                assert not compared
                exits["bad"] += 1
            elif any(clash[u] & need for u in range(g.n) if (need >> u) & 1):
                assert got == []
                assert all((need >> u) & (need >> w) & 1 for u, w in compared)
                exits["pair"] += 1
            elif len(allowed) < size:
                assert got == []
                assert all(((need >> u) | (need >> w)) & 1 for u, w in compared)
                exits["size"] += 1
    assert exits["bad"] > 1000 and exits["pair"] > 300 and exits["size"] > 3000, exits


def _twin_rich_free_graph(rng: random.Random) -> tuple[Graph, int]:
    """A random blow-up (each vertex of a graph on 1-5 vertices becomes a
    clique or an independent set of 1-4 vertices, edges become complete
    joins, 0-2 vertex pairs are flipped, labels are shuffled) and a k with
    no P_k in it, 1-3 above its longest path order."""
    order = rng.randint(1, 5)
    base = [(u, v) for u in range(order) for v in range(u) if rng.random() < 0.5]
    blocks, n = [], 0
    for _ in range(order):
        size = rng.randint(1, 4)
        blocks.append(range(n, n + size))
        n += size
    edges = set()
    for block in blocks:
        if rng.random() < 0.5:
            edges |= {(a, b) for a in block for b in block if a < b}
    for u, v in base:
        edges |= {(a, b) for a in blocks[v] for b in blocks[u]}
    for _ in range(rng.choice([0, 0, 1, 2]) if n > 1 else 0):
        edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
    perm = list(range(n))
    rng.shuffle(perm)
    g = relabel(make_graph(n, sorted(edges)), perm)
    return g, longest_path_order(g) + rng.randint(1, 3)


def test_twins_share_their_verdicts():
    """The twin lemma of _attachable_masks against whole-child searches:
    twins u, u' are bad together (g + v({u}) has a P_k iff g + v({u'})
    has), every pair of distinct vertices from the same two twin classes
    has one verdict (whether g + v({u, w}) has a P_k), and so has every
    pair inside one class.  On every parent of the rule cells that forbid
    a path and on 300 random twin-rich P_k-free blow-ups, where
    _attachable_masks is also checked mask by mask against the children."""
    checked = {"vertex": 0, "inner": 0, "across": 0}

    def check(g: Graph, k: int) -> None:
        bad, clash = _child_verdicts(g, k)
        classes = [list(iter_bits(c)) for c in _twin_classes_by_definition(g)]
        for members in classes:
            if len(members) > 1:
                assert len({bad >> u & 1 for u in members}) == 1, graph6_encode(g)
                checked["vertex"] += 1
                if not bad >> members[0] & 1:
                    pairs = {clash[pair] for pair in combinations(members, 2)}
                    assert len(pairs) == 1, graph6_encode(g)
                    checked["inner"] += 1
        # a pair with a bad vertex has a P_k in its child; the others:
        good = [members for members in classes if not bad >> members[0] & 1]
        for one, two in combinations(good, 2):
            if len(one) + len(two) > 2:
                pairs = {clash[min(u, w), max(u, w)] for u in one for w in two}
                assert len(pairs) == 1, graph6_encode(g)
                checked["across"] += 1

    for k, m, n in RULE_CELLS:
        if k is not None:
            for level in _ENUMERATOR.levels(k, m, n - 1):
                for g, _gens, _code in level:
                    check(g, k)
    rng = random.Random(15)
    for _ in range(300):
        g, k = _twin_rich_free_graph(rng)
        check(g, k)
        if g.n <= 9:
            want = [
                mask for mask in range(1 << g.n) if not has_path(_with_new_vertex(g, mask), k)
            ]
            assert _attachable_masks(g, k, None) == want, (graph6_encode(g), k)
    assert min(checked.values()) > 1000, checked


def _unpruned_candidates(levels: list, k, m, bound: int) -> list:
    """_candidates(levels, k, m, bound) as it was before twin classes were
    used, kept as the reference: for each parent, one rooted search per
    vertex, every pair of good vertices compared, every mask tested in
    turn (need, size, the degree test, bad vertices, clashing pairs,
    cliques), and the orbit of each kept mask closed under every
    generator, vertex by vertex, its least mask taken."""
    out = []
    for g, gens, _code in levels[-1]:
        n, degs = g.n, g.degrees()
        need, size = _look_ahead(g, bound)
        bad, clash = _rooted_verdicts(g, k)
        # |M| >= size >= every degree, so the new vertex has maximum degree
        # unless |M| equals the maximum degree and M holds a vertex of it
        top = max(degs, default=0)
        at_top = sum(1 << u for u, d in enumerate(degs) if d == top)
        kept = []
        for mask in range(1 << n) if (k is None or k > 1) and (m is None or m > 1) else ():
            count = mask.bit_count()
            if mask & need != need or count < size or mask & bad:
                continue
            if count == top and mask & at_top:
                continue
            if any(clash[u] & mask for u in iter_bits(mask)):
                continue
            if m is not None and has_clique_in(g, mask, m - 1):
                continue
            kept.append(mask)
        seen: set[int] = set()
        for mask in kept:
            if mask in seen:
                continue
            out.append((g, mask))
            seen.add(mask)
            orbit = [mask]
            for x in orbit:
                for a in gens:
                    y = sum(1 << a[u] for u in iter_bits(x))
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
    return out


def _scrambled(level: list, rng: random.Random) -> list:
    """The level with each generator that moves a twin class onto another
    followed by a random permutation of every twin class (the twin swaps
    are kept), so the generators span the same group but no longer map
    each class onto its image in order."""
    out = []
    for g, gens, code in level:
        classes = [list(iter_bits(c)) for c in _twin_classes_by_definition(g)]
        home = {u: members[0] for members in classes for u in members}
        scrambled = []
        for a in gens:
            if any(home[a[u]] != home[u] for u in range(g.n)):
                t = list(range(g.n))
                for members in classes:
                    for u, w in zip(members, rng.sample(members, len(members))):
                        t[u] = w
                a = tuple(t[x] for x in a)
            scrambled.append(a)
        out.append((g, tuple(scrambled), code))
    return out


def test_candidates_match_the_unpruned_reference():
    """_candidates, which searches one vertex per twin class, compares
    each pair of classes once, stops when too few vertices are left and
    takes orbit representatives among the twin-canonical masks, returns
    exactly the candidates of the unpruned reference, in order: on every
    level of the rule cells below n at bounds 0 to 3, the same levels with
    scrambled generators (_scrambled) at bound 0, and on every step of the
    look-ahead cells' filtered chains (δ = 1, 2, 3) at its bound."""
    rng = random.Random(15)
    jobs = []
    for k, m, n in RULE_CELLS:
        levels = _ENUMERATOR.levels(k, m, n - 1)
        jobs += [(k, m, levels[: i + 1], b) for i in range(n) for b in range(4)]
        jobs += [(k, m, [_scrambled(level, rng)], 0) for level in levels]
    for k, m, orders in LOOK_AHEAD_CELLS:
        for n in orders:
            for delta in range(1, min(n, 4)):
                _ENUMERATOR.chain(k, m, n, delta, None)
                chain = _ENUMERATOR.levels(k, m, n - delta)
                chain += _ENUMERATOR.filtered[(k, m, n, delta)]
                jobs += [(k, m, chain[: n - delta + j + 1], j + 1) for j in range(delta)]
    total = 0
    for k, m, levels, b in jobs:
        got = oracle._candidates(levels, k, m, b, None)
        assert got == _unpruned_candidates(levels, k, m, b), (k, m, len(levels) - 1, b)
        total += len(got)
    assert total > 10000, total


def test_filtered_chain_shares_the_unfiltered_levels(monkeypatch):
    """A filtered chain for n = 9, δ = 2 extends the unfiltered levels only
    to level 7, reuses the levels that an unfiltered enumeration at n = 7
    cached, and adds levels 8 and 9 with bounds 1 and 2; clear_cache
    empties both chains, the candidates and the classifier's tables.  A
    fresh enumerator keeps the shared one warm for the other tests."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerate_graphs(EnumerationConfig(n=7, forbid_path=7, forbid_clique=4))
    chain = enumerator.unfiltered[(7, 4)]
    cached = list(chain)
    assert len(cached) == 8
    steps = []
    extend = oracle._extend

    def spy(levels, k, m, bound, deadline):
        steps.append((len(levels), bound))
        return extend(levels, k, m, bound, deadline)

    monkeypatch.setattr(oracle, "_extend", spy)
    config = EnumerationConfig(n=9, forbid_path=7, forbid_clique=4, min_degree=2)
    got = enumerate_graphs(config)
    assert steps == [(8, 1), (9, 2)]
    assert len(chain) == 8 and all(a is b for a, b in zip(chain, cached))
    tail = enumerator.filtered[(7, 4, 9, 2)]
    assert len(tail) == 2 and [g for g, _gens, _code in tail[1]] == got
    # a second call is served from the cache
    assert enumerate_graphs(config) == got and len(steps) == 2
    class_table(9, 7, 4, False)
    assert class_table.cache_info().currsize > 0
    assert enumerator.candidates
    clear_cache()
    assert not enumerator.unfiltered and not enumerator.filtered
    assert not enumerator.candidates
    assert class_table.cache_info().currsize == 0


# (forbid_path, forbid_clique) cells of the extremal test, orders 0..8
EXTREMAL_CELLS = [(5, 3), (6, 4), (7, 4), (None, 3), (6, None)]


def test_extremal_matches_the_labelled_level(monkeypatch):
    """enumerate_graphs with extremal_r = r, which scores the unlabelled
    children of order n and labels only the winners, returns exactly the
    graphs of the labelled level n, after the same final filters, with
    the most K_r: for r in {2, 3}, n = 0..8, with and without
    connected_only and edge_maximal.  Each order is asked first with
    level n not yet labelled, and again once it is; candidates are
    computed once per order, and labelling the level reuses them."""
    computed = []
    candidates = oracle._candidates

    def spy(levels, k, m, bound, deadline):
        computed.append(len(levels))
        return candidates(levels, k, m, bound, deadline)

    monkeypatch.setattr(oracle, "_candidates", spy)
    ties = 0
    for k, m in EXTREMAL_CELLS:
        enumerator = Enumerator()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        computed.clear()
        for n in range(9):
            configs = [
                EnumerationConfig(
                    n=n, forbid_path=k, forbid_clique=m,
                    connected_only=connected, edge_maximal=maximal,
                )
                for connected in (False, True)
                for maximal in (False, True)
            ]
            cold = {
                (config, r): enumerate_graphs(replace(config, extremal_r=r))
                for config in configs
                for r in (2, 3)
            }
            assert len(enumerator.unfiltered[(k, m)]) == max(n, 1), (k, m, n)
            for (config, r), got in cold.items():
                full = enumerate_graphs(config)
                best = max(count_cliques(g, r) for g in full)
                want = [g for g in full if count_cliques(g, r) == best]
                assert got == want, (config, r)
                assert enumerate_graphs(replace(config, extremal_r=r)) == want, (config, r)
                ties += len(want) > 1
        assert computed == list(range(1, 9)), (k, m)
    assert ties > 60, ties


def test_extremal_r_validation():
    with pytest.raises(ParameterError):
        EnumerationConfig(n=5, forbid_path=5, extremal_r=1)
    with pytest.raises(ParameterError):
        EnumerationConfig(n=5, forbid_path=5, extremal_r=2, min_degree=1)


def test_levels_stop_at_the_order_asked():
    _ENUMERATOR.levels(7, 4, 8)
    assert len(_ENUMERATOR.levels(7, 4, 6)) == 7
    assert len(_ENUMERATOR.levels(7, 4, 8)) == 9


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
        for level in _ENUMERATOR.levels(k, m, 7):
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
        level = _ENUMERATOR.levels(k, m, n)[n]
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
    """From a cold cache, ex_oracle(10, None, 3, 2) labels the triangle-free
    levels to 9 and then scores the children on 10 vertices.  The budget is
    taken from a measured cold run: the time of the levels to 9 plus half
    the rest, so the deadline passes inside the order-10 stage, where a
    check made only between levels would not fire at all, on a host of
    any speed."""
    clear_cache()
    t0 = time.monotonic()
    enumerate_graphs(EnumerationConfig(n=9, forbid_clique=3))
    t9 = time.monotonic()
    ex_oracle(10, None, 3, 2)
    budget = (t9 - t0) + (time.monotonic() - t9) / 2
    clear_cache()
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


def test_time_budget_in_classification(monkeypatch):
    """The deadline is checked once per classified graph.  With the (7,4)
    inputs on 7..9 vertices warm, and each classification made to sleep
    0.1 s, a 0.35 s budget runs out while the 10 graphs on 7 vertices are
    classified: the sweep stops within one classification of it, the stats
    name the stage and the n reached, and classify --exhaustive exits 3."""
    verify_classification(7, 4, range(7, 10))
    classified = []

    def slow(g, k, m):
        classified.append(g)
        time.sleep(0.1)
        return classify_structure(g, k, m)

    # verify_classification reads classify_structure from detect per call
    monkeypatch.setattr(detect, "classify_structure", slow)
    budget = 0.35
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        verify_classification(7, 4, range(7, 10), budget)
    assert time.monotonic() - t0 < budget + 0.1 + 0.3
    assert info.value.stats == {"stage": "classify", "n": 7, "classified": len(classified)}
    assert 0 < len(classified) < 10
    argv = ["classify", "--exhaustive", "--k", "7", "--m", "4", "--n", "7..9"]
    assert cli.main(argv + ["--budget", "0.35"]) == 3


def test_time_budget_in_the_family_checks(monkeypatch):
    """verify_theorem checks the deadline before each n's check of the
    predicted family.  With the oracle's answers for (7,4), r = 2, n =
    7..9 computed beforehand and served at once, and each family check
    made to sleep 0.1 s, a 0.15 s budget runs out after the family checks
    of n = 7 and 8: the sweep stops within one family check of it, the
    stats name the stage, the n reached and the rows done, and verify
    exits 3."""
    answers = {n: ex_oracle(n, 7, 4, 2, connected=True) for n in range(7, 10)}
    checked = []
    family = oracle._predicted_family

    def slow(n, *args):
        checked.append(n)
        time.sleep(0.1)
        return family(n, *args)

    monkeypatch.setattr(oracle, "ex_oracle", lambda n, *args, **kwargs: answers[n])
    monkeypatch.setattr(oracle, "_predicted_family", slow)
    budget = 0.15
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem(TheoremParams(7, 4, 2), range(7, 10), "connected", budget)
    assert time.monotonic() - t0 < budget + 0.1 + 0.3
    assert checked == [7, 8]
    assert info.value.stats == {"stage": "family", "n": 9, "rows": 2}
    argv = ["verify", "--k", "7", "--m", "4", "--r", "2", "--n", "7..9", "--connected"]
    assert cli.main(argv + ["--budget", "0.15"]) == 3


def test_one_budget_per_command(monkeypatch):
    """verify and classify give the whole sweep one budget: each n gets the
    time left, so no n's deadline is later than the command's.  A cold
    (7,4) verify over n = 7..10 takes about a second on 2 cores, so a
    0.3 s budget runs out inside it, and the sweep stops within the budget
    plus one parent's extensions (0.5 s allowed for scheduling)."""
    deadlines = []

    def recorder(real, budget_of):
        def call(*args, **kwargs):
            budget = budget_of(*args, **kwargs)
            if budget is not None:  # not the classifier's own enumerations
                deadlines.append(time.monotonic() + budget)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    monkeypatch.setattr(
        oracle, "ex_oracle",
        recorder(ex_oracle, lambda *args, time_budget_s, **kwargs: time_budget_s),
    )
    budget = 0.3
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem(TheoremParams(7, 4, 2), range(7, 11), "connected", budget)
    assert time.monotonic() - t0 < budget + 0.5
    assert info.value.stats["completed_levels"] < 10
    assert len(deadlines) >= 2 and max(deadlines) <= t0 + budget + 0.01, deadlines

    deadlines.clear()
    monkeypatch.setattr(
        oracle, "enumerate_graphs",
        recorder(enumerate_graphs, lambda config: config.time_budget_s),
    )
    budget = 60.0
    t0 = time.monotonic()
    verify_classification(7, 4, range(7, 10), budget)
    assert len(deadlines) == 3 and max(deadlines) <= t0 + budget + 0.01, deadlines


def test_time_budget_inside_the_filtered_chain(monkeypatch):
    """The deadline is checked per parent in look-ahead steps too.  With
    the unfiltered triangle-free levels to 8 cached, a 0.1 s budget runs
    out in the filtered steps to n = 10, δ = 2 (about half a second each
    on 2 cores); the stats name the levels completed, the filtered chain
    holds only whole levels, and a resumed run gives what a cold one does."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerator.levels(None, 3, 8)
    budget = 0.1
    config = EnumerationConfig(n=10, forbid_clique=3, min_degree=2, time_budget_s=budget)
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    assert time.monotonic() - t0 < budget + 2.0
    stats = info.value.stats
    done = stats["completed_levels"]
    assert 8 <= done < 10
    assert len(stats["level_sizes"]) == done + 1
    assert stats["level_sizes"][:9] == [len(l) for l in enumerator.levels(None, 3, 8)]
    # the interrupted filtered level was not cached half-built
    assert len(enumerator.filtered[(None, 3, 10, 2)]) == done - 8
    unbudgeted = replace(config, time_budget_s=None)
    resumed = enumerate_graphs(unbudgeted)
    enumerator.clear()
    assert enumerate_graphs(unbudgeted) == resumed


def test_time_budget_in_the_final_filters(monkeypatch):
    """The deadline is checked per graph in the final filters too.  With
    the (7,4) levels to 10 warm, no level is built, so a budget of 0 runs
    out in the edge_maximal filter, and the stats name that stage."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerator.unfiltered[(7, 4)] = list(_ENUMERATOR.levels(7, 4, 10))
    config = EnumerationConfig(
        n=10, forbid_path=7, forbid_clique=4, edge_maximal=True, time_budget_s=0
    )
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    stats = info.value.stats
    assert stats["stage"] == "filters" and stats["completed_levels"] == 10
    assert stats["level_sizes"] == [len(l) for l in enumerator.levels(7, 4, 10)]
