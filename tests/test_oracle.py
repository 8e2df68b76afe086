import functools
import hashlib
import json
import random
import time
from collections import Counter
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
from pathclique.graphs import Graph, iter_bits, lower_twins, make_graph, primitive, relabel
from pathclique.oracle import (
    CAP_ENV_VAR,
    Budget,
    BudgetExceeded,
    CapExceeded,
    EnumerationConfig,
    Enumerator,
    _ENUMERATOR,
    _attach,
    _attachable_masks,
    _orbit_representatives,
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

from canon_reference import group_order, reference_canonical_labeling

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
# sha256 of the candidate lists of (k, m) ("<order> <parent code> <mask>"
# lines, orders 1..n), recorded before the canonical search jumped back
# to the divergence node at equal leaves
CANDIDATE_DIGESTS = {
    (7, 4, 9): "3c45d09976473309e0116f1e14b3ad67dfcd53646120925c0ec780072c8034b4",
    (9, 5, 8): "76bbfb612d81134b5104b0d65915d0897cb6e35e3f45e8aedfc163367fae255f",
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


def _longest_path_order(g: nx.Graph) -> int:
    """The most vertices on a path of g, by trying every simple path until
    one visits every vertex."""
    best = 0

    def dfs(v, visited: set) -> None:
        nonlocal best
        best = max(best, len(visited))
        for w in g[v]:
            if w not in visited and best < len(g):
                dfs(w, visited | {w})

    for v in g:
        dfs(v, {v})
    return best


def test_enumeration_matches_the_graph_atlas():
    """Every level to n = 7 against the networkx graph atlas, one graph per
    isomorphism class on at most 7 vertices: for each k and m (None:
    unforbidden, not both), the atlas graphs whose longest path has fewer
    than k vertices (a brute-force search here) and whose clique number
    (networkx.find_cliques) is below m have the same count and the same
    canonical codes as enumerate_graphs at every n."""
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    facts = []  # (order, longest path order, clique number, canonical code)
    for h in atlas:
        g = make_graph(h.number_of_nodes(), h.edges())
        omega = max((len(c) for c in nx.find_cliques(h)), default=0)
        facts.append((g.n, _longest_path_order(h), omega, canonical(g).decode()))
    for k in (None, *range(2, 9)):
        for m in (None, *range(2, 8)):
            if k is None and m is None:
                continue
            for n in range(8):
                want = sorted(
                    code
                    for order, path, omega, code in facts
                    if order == n and (k is None or path < k) and (m is None or omega < m)
                )
                config = EnumerationConfig(n=n, forbid_path=k, forbid_clique=m)
                got = [graph6_encode(g) for g in enumerate_graphs(config)]
                assert got == want, (k, m, n)


def test_level_lists_byte_identical():
    for (k, m, n), want in LEVEL_DIGESTS.items():
        lines = []
        for order in range(n + 1):
            config = EnumerationConfig(n=order, forbid_path=k, forbid_clique=m)
            lines += [f"{order} {graph6_encode(g)}" for g in enumerate_graphs(config)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want, (k, m, n)


def test_filtered_levels_byte_identical():
    """Level (n, δ) asked first from a fresh enumerator, which skips the
    levels between it and the unfiltered level n - δ when δ >= 2, and
    then each level (order, δ - (n - order)) below it, asked directly."""
    for (k, m, n, delta), want in FILTERED_DIGESTS.items():
        enumerator = Enumerator()
        enumerator.level(k, m, n, delta)
        orders = range(n - delta + 1, n + 1)
        lines = [
            f"{order} {code}"
            for order in orders
            for _g, _gens, code in enumerator.level(k, m, order, delta - (n - order))
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == want, (k, m, n, delta)


def test_candidate_lists_byte_identical():
    """The candidates (parent, mask) depend on the stored generators only
    through the group they generate (_orbit_representatives takes orbit
    minima), so a search that stores fewer generators of the same group
    must give the same lists."""
    for (k, m, n), want in CANDIDATE_DIGESTS.items():
        lines = [
            f"{order} {graph6_encode(g)} {mask}"
            for order in range(1, n + 1)
            for g, mask in _ENUMERATOR.children(k, m, order)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == want, (k, m, n)


def test_stored_generators_give_the_reference_orbits():
    """On the (P_7, K_4)-free levels to n = 8, the stored generators and
    those of the reference search (tests/canon_reference.py) on the stored
    graph give every subset of the vertices the same orbit minimum."""
    checked = 0
    for level in _ENUMERATOR.chain(7, 4, 8):
        for g, gens, code in level:
            _perm, ref = reference_canonical_labeling(g)
            assert _orbit_minima(g.n, gens) == _orbit_minima(g.n, tuple(ref)), code
            checked += 1
    assert checked == 1013


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


def _twin_canon(classes: list[int], mask: int) -> int:
    """The image of mask that holds, of each twin class in classes (as
    bitmasks), as many vertices as mask does, the lowest ones."""
    out = 0
    for members in classes:
        for u in list(iter_bits(members))[: (mask & members).bit_count()]:
            out |= 1 << u
    return out


def _canonical_max_degree(g: Graph, masks: list[int]) -> list[int]:
    """The masks, in their order, that are twin-canonical (equal to their
    _twin_canon) and give the new vertex maximum degree in g + v(M):
    deg(u) + [u in M] <= |M| for every vertex u of g."""
    classes = _twin_classes_by_definition(g)
    degs = g.degrees()
    return [
        mask
        for mask in masks
        if _twin_canon(classes, mask) == mask
        and all(d + (mask >> u & 1) <= mask.bit_count() for u, d in enumerate(degs))
    ]


def test_mask_rule_matches_unpruned_extension():
    """The pruned enumeration against an unpruned one kept here.

    For every parent on fewer than n vertices and every mask, the rule keeps
    the mask iff the whole candidate graph has no P_k and no K_m.  The
    candidate is checked once per orbit of masks: the parent's generators
    are automorphisms, so all candidates of an orbit are isomorphic.  Each
    level to n must hold the same graphs and codes as the one built from
    the level below by labelling every free orbit representative
    canonically, with no degree filter.  _attachable_masks, which grows
    only twin-canonical masks and applies the degree test, must return
    the twin-canonical free masks whose new vertex has maximum degree, and
    _orbit_representatives the least mask of each orbit they meet.
    Which candidate reaches a code first depends on the filter, so the
    stored generators may differ; they must be automorphisms of the stored
    graph."""
    for k, m, n in RULE_CELLS:
        levels = _ENUMERATOR.chain(k, m, n)
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
                got = _attachable_masks(g, k, m, 0)
                assert got == _canonical_max_degree(g, want), (k, m, code)
                reps = _orbit_representatives(got, gens, lower_twins(g))
                assert reps == sorted({minima[x] for x in got}), (k, m, code)
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
        for level in _ENUMERATOR.chain(k, m, n):
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
    """need and size as _attachable_masks reads them for a bound: the
    vertices of degree < bound, and the least mask size that passes the
    degree tests."""
    degs = g.degrees()
    need = sum(1 << u for u, d in enumerate(degs) if d < bound)
    return need, max(max(degs, default=0), bound)


@functools.cache
def _free_masks(g: Graph, k, m) -> tuple[int, ...]:
    """Every mask M, ascending, for which g + v(M) has no P_k and no K_m:
    no bad vertex and no clashing pair (_rooted_verdicts: one search per
    vertex, every pair compared) and no K_{m-1} in M."""
    if (k is not None and k <= 1) or (m is not None and m <= 1):
        return ()
    bad, clash = _rooted_verdicts(g, k)
    return tuple(
        mask
        for mask in range(1 << g.n)
        if not mask & bad
        and not any(clash[u] & mask for u in iter_bits(mask))
        and (m is None or not has_clique_in(g, mask, m - 1))
    )


def test_max_degree_masks():
    """For every parent of the rule cells' levels below n, the masks that
    _candidates keeps (_attachable_masks with a bound, which applies the
    degree test) are exactly the twin-canonical attachable masks
    (_free_masks) whose new vertex has maximum degree in the child, and,
    with a bound b from 1 to the parent's min degree + 1, those whose
    child also has min degree >= b.  What it keeps holds canon(a(M)) for
    every kept M and generator a, canon the twin-canonical image
    (_twin_canon), as _orbit_representatives needs.  With most = d, for d
    from 0 to the parent's min degree + 1 (the top order of
    Enumerator.extremal), it applies no degree test and keeps exactly the
    twin-canonical attachable masks of at most d vertices."""
    bounded = 0
    for k, m, n in RULE_CELLS:
        for i, level in enumerate(_ENUMERATOR.chain(k, m, n - 1)):
            for g, gens, code in level:
                classes = _twin_classes_by_definition(g)
                masks = [x for x in _free_masks(g, k, m) if _twin_canon(classes, x) == x]
                # deg(u) + [u in M] in the child against |M| for the new vertex
                degs = g.degrees()
                for b in range(g.min_degree() + 2):
                    kept = _attachable_masks(g, k, m, b)
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
                            assert _twin_canon(classes, img) in members, (k, m, code, b, mask)
                    bounded += len(kept) if b else 0
                for d in range(g.min_degree() + 2):
                    kept = _attachable_masks(g, k, m, most=d)
                    assert kept == [x for x in masks if x.bit_count() <= d], (k, m, code, d)
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
            full = [g for g, _gens, _code in _ENUMERATOR.chain(k, m, n)[n]]
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
        for level in _ENUMERATOR.chain(k, m, n - 1):
            out.update(((k, m, code), g) for g, _gens, code in level)
    for k, m, orders in chains:
        for n in orders:
            for delta in range(1, min(n, 4)):
                for level in _ENUMERATOR.chain(k, m, n, delta)[n - delta : n]:
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
    """_attachable_masks with a bound b, for every parent of the rule
    cells' levels and of the look-ahead cells' filtered chains and every
    b from 0 to the parent's min degree + 1, returns the unpruned masks
    that hold need and have at least size vertices (_look_ahead).  The
    unpruned masks are built without _attachable_masks: the
    twin-canonical masks of _free_masks, less those of D vertices that
    hold a vertex of degree D, D the maximum degree.

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
        classes = _twin_classes_by_definition(g)
        top = max(g.degrees(), default=0)
        at_top = sum(1 << u for u, d in enumerate(g.degrees()) if d == top)
        full = [
            mask
            for mask in _free_masks(g, k, m)
            if _twin_canon(classes, mask) == mask
            and not (mask.bit_count() == top and mask & at_top)
        ]
        bad, clash = _rooted_verdicts(g, k)
        # rank[u]: u's place in its twin class; lowest[u]: the class's lowest vertex
        rank, lowest = [0] * g.n, [0] * g.n
        for members in classes:
            for place, u in enumerate(u for u in range(g.n) if (members >> u) & 1):
                rank[u], lowest[u] = place, (members & -members).bit_length() - 1
        for b in range(g.min_degree() + 2):
            need, size = _look_ahead(g, b)
            searched.clear()
            compared.clear()
            got = _attachable_masks(g, k, m, b)
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
    _attachable_masks is also checked mask by mask against the children:
    it must return the twin-canonical masks whose child has no P_k and
    whose new vertex has maximum degree (_canonical_max_degree)."""
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
            for level in _ENUMERATOR.chain(k, m, n - 1):
                for g, _gens, _code in level:
                    check(g, k)
    rng = random.Random(15)
    for _ in range(300):
        g, k = _twin_rich_free_graph(rng)
        check(g, k)
        if g.n <= 9:
            want = [
                mask
                for mask in _canonical_max_degree(g, range(1 << g.n))
                if not has_path(_with_new_vertex(g, mask), k)
            ]
            got = _attachable_masks(g, k, None, 0)
            assert got == want, (graph6_encode(g), k)
    assert min(checked.values()) > 1000, checked


def _unpruned_candidates(level: list, k, m, bound: int) -> list:
    """_candidates(level, k, m, bound) as it was before twin classes were
    used, kept as the reference: for each parent, one rooted search per
    vertex, every pair of good vertices compared, every mask tested in
    turn (need, size, the degree test, bad vertices, clashing pairs,
    cliques), and the orbit of each kept mask closed under every
    generator, vertex by vertex, its least mask taken."""
    out = []
    for g, gens, _code in level:
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
        levels = _ENUMERATOR.chain(k, m, n - 1)
        jobs += [(k, m, level, b) for level in levels for b in range(4)]
        jobs += [(k, m, _scrambled(level, rng), 0) for level in levels]
    for k, m, orders in LOOK_AHEAD_CELLS:
        for n in orders:
            for delta in range(1, min(n, 4)):
                chain = _ENUMERATOR.chain(k, m, n, delta)
                jobs += [(k, m, chain[n - delta + j], j + 1) for j in range(delta)]
    total = 0
    for k, m, level, b in jobs:
        got = oracle._candidates(level, k, m, b, Budget())
        assert got == _unpruned_candidates(level, k, m, b), (k, m, level[0][0].n, b)
        total += len(got)
    assert total > 10000, total


def test_unchecked_graphs_are_valid():
    """Enumeration builds its children (_attach) and their canonical forms
    (canonical_with_generators) without the Graph check.  Each of them
    passes it: every graph of the levels of the rule and look-ahead cells,
    of their filtered chains (δ = 1, 2, 3) and of their extremal winners
    (r = 2, 3, connected or not) at every order, and the child of every
    candidate (every kept orbit representative) of those levels and
    chains, rebuilt by the checking constructor from a tuple of its rows,
    equals itself."""
    graphs = []
    cells = RULE_CELLS + [(k, m, orders[-1]) for k, m, orders in LOOK_AHEAD_CELLS]
    for k, m, n in cells:
        levels = _ENUMERATOR.chain(k, m, n)
        graphs += [g for level in levels for g, _gens, _code in level]
        for order in range(1, n + 1):
            graphs += [_attach(g, mask) for g, mask in _ENUMERATOR.children(k, m, order)]
            for r in (2, 3):
                for connected in (False, True):
                    graphs += _ENUMERATOR.extremal(k, m, order, r, connected)
    for k, m, orders in LOOK_AHEAD_CELLS:
        for n in orders:
            for delta in range(1, min(n, 4)):
                chain = _ENUMERATOR.chain(k, m, n, delta)
                for j in range(delta):
                    top = n - delta + j
                    steps = oracle._candidates(chain[top], k, m, j + 1, Budget())
                    graphs += [_attach(g, mask) for g, mask in steps]
                    graphs += [g for g, _gens, _code in chain[top + 1]]
    for g in graphs:
        assert Graph(g.n, tuple(g.rows)) == g, graph6_encode(g)
    assert len(graphs) > 10000, len(graphs)


def _unfiltered_keys(k, m, count: int) -> set:
    """The keys of the unfiltered levels 0, ..., count - 1 of (k, m)."""
    return {(k, m, n, 0) for n in range(count)}


def _step_spy(monkeypatch, steps: list) -> None:
    """Record (order, bound, whether the parents are labelled) in steps for
    every step of _candidates with a bound; unlabelled parents are
    (graph, ()) pairs and come as a generator."""
    candidates = oracle._candidates

    def spy(parents, k, m, bound, budget):
        parents = list(parents)
        if bound > 0 and parents:
            steps.append((parents[0][0].n + 1, bound, len(parents[0]) == 3))
        return candidates(parents, k, m, bound, budget)

    monkeypatch.setattr(oracle, "_candidates", spy)


def test_filtered_chain_shares_the_unfiltered_levels(monkeypatch):
    """A filtered enumeration for n = 9, δ = 2 extends the unfiltered
    levels only to level 7, reuses the levels that an unfiltered
    enumeration at n = 7 stored, takes the step to (8, 1) from level 7
    labelled and the step to (9, 2) from the unlabelled candidates of
    (8, 1), and adds only level (9, 2); the extremal graphs on 9 vertices
    then store no level of order 8 and take no bounded step; clear_cache
    empties, through Enumerator.clear, the levels and the top order's
    searches, the enumerator's only two stores, and the classifier's
    tables.
    A fresh enumerator keeps the shared one warm for the other tests.  A
    chain for n = 10, δ = 2 stores the unfiltered levels to 8 and the
    levels (9, 1) and (10, 2), each once, both grown from labelled parent
    levels; level (10, 2) alone stores the unfiltered levels to 8 and
    level (10, 2), grown from the unlabelled candidates of (9, 1)."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerate_graphs(EnumerationConfig(n=7, forbid_path=7, forbid_clique=4))
    cached = dict(enumerator.levels)
    assert set(cached) == _unfiltered_keys(7, 4, 8)
    steps = []
    _step_spy(monkeypatch, steps)
    config = EnumerationConfig(n=9, forbid_path=7, forbid_clique=4, min_degree=2)
    got = enumerate_graphs(config)
    assert steps == [(8, 1, True), (9, 2, False)]
    assert set(enumerator.levels) == set(cached) | {(7, 4, 9, 2)}
    assert all(enumerator.levels[key] is level for key, level in cached.items())
    assert [g for g, _gens, _code in enumerator.levels[7, 4, 9, 2]] == got
    # a second call is served from the cache
    assert enumerate_graphs(config) == got and len(steps) == 2
    class_table(9, 7, 4, False)
    assert class_table.cache_info().currsize > 0
    # the extremal graphs on 9 vertices are bounded from level 7 through
    # two minimum-degree steps, so order 8 is not labelled
    enumerate_graphs(EnumerationConfig(n=9, forbid_path=7, forbid_clique=4, extremal_r=2))
    assert (7, 4, 8, 0) not in enumerator.levels and len(steps) == 2
    assert enumerator.searched
    clear_cache()
    assert not enumerator.levels and not enumerator.searched
    assert set(vars(enumerator)) == {"levels", "searched"}
    assert class_table.cache_info().currsize == 0
    steps.clear()
    fresh = Enumerator()
    fresh.chain(7, 4, 10, 2)
    assert set(fresh.levels) == _unfiltered_keys(7, 4, 9) | {(7, 4, 9, 1), (7, 4, 10, 2)}
    assert steps == [(9, 1, True), (10, 2, True)]
    steps.clear()
    fresh = Enumerator()
    fresh.level(7, 4, 10, 2)
    assert set(fresh.levels) == _unfiltered_keys(7, 4, 9) | {(7, 4, 10, 2)}
    assert steps == [(9, 1, True), (10, 2, False)]


def test_classification_sweep_reads_one_tail(monkeypatch):
    """verify_classification(7, 4, range(7, 11)) (δ_7 = 2) reads every
    order from the chain of (10, 2): from a fresh enumerator it takes only
    the filtered steps to 9 (bound 1) and 10 (bound 2), both from labelled
    parent levels, grows nothing unlabelled, stores the levels of that
    chain below order 10 and no other of (7, 4), labels only the connected
    candidates of (10, 2) and does not store that level, the chains of
    its orders share their levels, and its report is
    the merge of the four single-n reports, each from a fresh enumerator.
    A sweep to 11, above the cap, grows the same chain before it raises."""
    steps = []
    _step_spy(monkeypatch, steps)
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    report = verify_classification(7, 4, range(7, 11))
    assert steps == [(9, 1, True), (10, 2, True)]
    # the classifier's own enumerations are of other classes
    stored = {key for key in enumerator.levels if key[:2] == (7, 4)}
    assert stored == _unfiltered_keys(7, 4, 9) | {(7, 4, 9, 1)}
    assert enumerator.chain(7, 4, 9, 1)[-1] is enumerator.chain(7, 4, 10, 2)[-2]
    singles = []
    for n in range(7, 11):
        monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
        singles.append(verify_classification(7, 4, range(n, n + 1)))
    histogram: dict[str, int] = {}
    for single in singles:
        for tag, count in single["histogram"].items():
            histogram[tag] = histogram.get(tag, 0) + count
    assert report == {
        "k": 7,
        "m": 4,
        "n_range": [7, 10],
        "total": sum(single["total"] for single in singles),
        "histogram": dict(sorted(histogram.items())),
        "unclassified": sorted(c for single in singles for c in single["unclassified"]),
        "ok": all(single["ok"] for single in singles),
    }
    assert all(single["total"] for single in singles)
    # an order above the cap raises when it is reached, and the orders
    # below it read the chain of the largest order the cap allows
    steps.clear()
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    with pytest.raises(CapExceeded):
        verify_classification(7, 4, range(9, 12))
    assert steps == [(9, 1, True), (10, 2, True)]


# (forbid_path, forbid_clique, δ_k, largest n) cells of the connected
# enumeration; (None, 3) takes 2 in place of δ_k
CONNECTED_CELLS = [(5, 3, 1, 10), (6, 4, 2, 9), (7, 4, 2, 9), (None, 3, 2, 8), (9, 5, 3, 7)]


def test_connected_graphs_match_the_filtered_level(monkeypatch):
    """Enumerator.connected, over a level that is not stored, labels only
    the candidates whose child is connected; over a stored level, or
    level 0, it filters the level and checks the budget once per graph.
    For each cell, every n from 0 to its largest and δ in {0, 1, δ_k},
    it and enumerate_graphs with connected_only return, from a fresh
    enumerator, asked twice, and then once level (n, δ) is stored, the
    connected graphs of level (n, δ), graph by graph, as read from
    another enumerator, fresh for each cell: at n = 0 the graph on 0
    vertices for δ = 0, and nothing for δ >= 1.  Before the level is
    stored, the asks do not store it."""
    checks = []

    class Counting(Budget):
        def check(self, stage, **done):
            checks.append(stage)

    for k, m, dk, top in CONNECTED_CELLS:
        reference = Enumerator()
        found = 0
        for n in range(top + 1):
            for delta in sorted({0, 1, dk}):
                key = (k, m, n, delta)
                level = reference.level(*key)
                want = [g for g, _gens, _code in level if is_connected(g)]
                found += len(want)
                enumerator = Enumerator()
                monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
                config = EnumerationConfig(
                    n=n, forbid_path=k, forbid_clique=m, connected_only=True, min_degree=delta
                )
                assert enumerate_graphs(config) == want, key
                assert enumerator.connected(*key) == want, key
                if n > 0:
                    assert key not in enumerator.levels, key
                enumerator.level(*key)
                checks.clear()
                assert enumerator.connected(*key, budget=Counting()) == want, key
                assert checks == ["filters"] * len(level), key
                assert enumerate_graphs(config) == want, key
        assert found > 0, (k, m)
    assert Enumerator().connected(7, 4, 0) == [Graph(0, ())]


def test_connected_candidates_meet_every_component():
    """For every candidate (P, M) of a few levels, grown from labelled
    parents and from unlabelled ones, M meets every connected component
    of P, as networkx finds them, iff P + v(M) is connected.  Each level
    has candidates of both kinds."""
    enumerator = Enumerator()
    for key in [(7, 4, 9, 0), (7, 4, 10, 2), (6, 4, 9, 1), (None, 3, 8, 2), (9, 5, 7, 2)]:
        kinds = set()
        for g, mask in enumerator.children(*key):
            components = nx.connected_components(_nx_graph(g))
            meets = all(mask & sum(1 << u for u in c) for c in components)
            assert meets == is_connected(_attach(g, mask)), (key, g, mask)
            kinds.add(meets)
        assert kinds == {True, False}, key


def test_connected_counts_match_the_graph_atlas(monkeypatch):
    """The connected triangle-free and K_4-free graphs on 1..7 vertices in
    the networkx graph atlas (connectivity by networkx.is_connected,
    clique numbers by networkx.find_cliques) are as many as
    enumerate_graphs with connected_only returns from a fresh
    enumerator.  test_oeis_connected_counts checks the unconstrained
    class."""
    counts: Counter = Counter()
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            omega = max(len(c) for c in nx.find_cliques(h))
            for m in (3, 4):
                counts[m, h.number_of_nodes()] += omega < m
    for m in (3, 4):
        for n in range(1, 8):
            monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
            config = EnumerationConfig(n=n, forbid_clique=m, connected_only=True)
            assert len(enumerate_graphs(config)) == counts[m, n] > 0, (m, n)


def _canonical_spy(monkeypatch, calls: Counter) -> None:
    """Count in calls, by order, the canonical searches of the
    enumeration."""
    search = oracle.canonical_with_generators

    def spy(g):
        calls[g.n] += 1
        return search(g)

    monkeypatch.setattr(oracle, "canonical_with_generators", spy)


def test_classification_labels_the_connected_candidates_of_its_top_order(monkeypatch):
    """From a fresh enumerator, verify_classification(7, 4, range(10, 11))
    and range(7, 11) make 16 canonical searches at order 10, one per
    connected candidate of level (10, 2): of 325 candidates grown from
    the unlabelled candidates of (9, 1), and of 183 grown from level
    (9, 1) labelled, which the sweep reads for order 9.
    verify_classification(9, 5, range(9, 11)) gives the same report and
    makes the same searches below order 10 as a fresh enumerator that
    first reads the levels (9, 2) and (10, 3) whole, as every order did
    before it labelled only the connected candidates of its top order; at
    order 10 it makes one per connected candidate of level (10, 3), fewer
    than the candidates, which that enumerator labels all."""
    calls: Counter = Counter()
    _canonical_spy(monkeypatch, calls)
    for n_range, grown in ((range(10, 11), 325), (range(7, 11), 183)):
        enumerator = Enumerator()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        class_table.cache_clear()
        calls.clear()
        verify_classification(7, 4, n_range)
        candidates = enumerator.children(7, 4, 10, 2)
        connected = [c for c in candidates if is_connected(_attach(*c))]
        assert calls[10] == len(connected) == 16 and len(candidates) == grown, n_range
    reports, below, top = [], [], []
    for whole in (True, False):
        enumerator = Enumerator()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        class_table.cache_clear()
        calls.clear()
        if whole:
            enumerator.level(9, 5, 9, 2)
            enumerator.level(9, 5, 10, 3)
        reports.append(verify_classification(9, 5, range(9, 11)))
        below.append({n: count for n, count in calls.items() if n < 10})
        top.append(calls[10])
    candidates = enumerator.children(9, 5, 10, 3)
    connected = [c for c in candidates if is_connected(_attach(*c))]
    assert reports[0] == reports[1] and reports[0]["total"] > 0
    assert below[0] == below[1]
    assert top[1] == len(connected) < len(candidates) == top[0]


# (forbid_path, forbid_clique, n, δ) cells whose level (n, δ) is grown from
# unlabelled parents; at (9, 5, 9, 3) two steps in a row are skipped
SKIPPED_CELLS = [(7, 4, 10, 2), (6, 4, 9, 2), (None, 3, 8, 2), (9, 5, 9, 3)]


def test_skipped_levels_match_the_labelled_ones(monkeypatch):
    """Level (n, δ), asked from a fresh enumerator, labels no level between
    the unfiltered level n - δ and n: each step with bound >= 2 is grown
    from the unlabelled candidates of its parent level
    (Enumerator.children), and the step with bound 1 from level n - δ
    labelled.  Each level so grown,
    the one asked and, at δ = 3, level (n - 1, 2) asked from another
    fresh enumerator, equals, code by code and graph by graph, the same
    level in the chain of (n, δ) from a fresh enumerator, which labels
    each level after its parent level and grows nothing unlabelled."""
    steps = []
    _step_spy(monkeypatch, steps)
    for k, m, n, delta in SKIPPED_CELLS:
        enumerator = Enumerator()
        steps.clear()
        enumerator.level(k, m, n, delta)
        skipped = [(k, m, n - j, delta - j) for j in range(delta)]
        assert set(enumerator.levels) == _unfiltered_keys(k, m, n - delta + 1) | {skipped[0]}
        assert steps == [(n - j, delta - j, j == delta - 1) for j in reversed(range(delta))]
        reference = Enumerator()
        reference.chain(k, m, n, delta)
        assert steps[delta:] == [(n - j, delta - j, True) for j in reversed(range(delta))]
        for key in skipped[:-1]:
            got = enumerator.levels[key] if key == skipped[0] else Enumerator().level(*key)
            want = reference.levels[key]
            assert [code for _g, _gens, code in got] == [code for _g, _gens, code in want], key
            assert [g for g, _gens, _code in got] == [g for g, _gens, _code in want], key
            assert got, key


def test_steps_below_bound_two_read_labelled_parents(monkeypatch):
    """A step with bound 1 reads its parent level labelled, as does a step
    with bound 2 whose parent level is stored; neither grows anything from
    unlabelled parents.  Level (9, 1) of (7,4), asked from a fresh
    enumerator, labels level (8, 0) and reads it; level (10, 2), asked
    after it, reads level (9, 1)."""
    steps = []
    _step_spy(monkeypatch, steps)
    enumerator = Enumerator()
    enumerator.level(7, 4, 9, 1)
    assert steps == [(9, 1, True)] and (7, 4, 8, 0) in enumerator.levels
    enumerator.level(7, 4, 10, 2)
    assert steps == [(9, 1, True), (10, 2, True)]
    assert set(enumerator.levels) == _unfiltered_keys(7, 4, 9) | {(7, 4, 9, 1), (7, 4, 10, 2)}


def test_a_stored_level_drops_the_list_grown_from_it(monkeypatch):
    """Level (9, 3) of (7,4), asked from a fresh enumerator, grows the
    candidates of (8, 2) from the unlabelled candidates of (7, 1), and
    keeps no list.  The chain of (8, 2), asked next, labels level (7, 1),
    and grows the candidates of (8, 2) again, from level (7, 1) labelled:
    the graphs, generators and codes of level (8, 2), and those of the
    whole chain, are those of the chain of a fresh enumerator.  Labelled
    from the list grown from unlabelled parents, level (8, 2) would hold
    the same graphs with other generators."""
    steps = []
    _step_spy(monkeypatch, steps)
    enumerator = Enumerator()
    enumerator.level(7, 4, 9, 3)
    assert steps == [(7, 1, True), (8, 2, False), (9, 3, False)]
    steps.clear()
    chain = enumerator.chain(7, 4, 8, 2)
    assert steps == [(7, 1, True), (8, 2, True)]
    assert chain == Enumerator().chain(7, 4, 8, 2)


def test_a_cold_pass_computes_each_candidate_list_once(monkeypatch, capsys):
    """The Enumerator keeps no candidate list, as a pass of the benchmark
    sweeps would read none twice.  One fresh enumerator runs, as one cold
    pass, the commands of extremal_sweep to order 10 (verify (7,4), r = 2
    connected and r = 3 over all graphs, n = 7..10, and the oracle at
    n = 10, r = 2), then classify --exhaustive for (7,4) with --n 7, 8, 9
    and 10, and a spy on _candidates sees no (k, m, n, δ) list computed
    twice.  classify --n 7..10, run last, computes again only the lists of
    (9, 1) and (10, 2): it asks again for the connected graphs of order
    10, which no store keeps, and labels level (9, 1), from which --n 10
    grew only unlabelled parents."""
    computed: Counter = Counter()
    candidates = oracle._candidates

    def spy(parents, k, m, bound, budget):
        parents = list(parents)
        if parents:
            computed[k, m, parents[0][0].n + 1, bound] += 1
        return candidates(parents, k, m, bound, budget)

    monkeypatch.setattr(oracle, "_candidates", spy)
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    class_table.cache_clear()
    verify = ["verify", "--k", "7", "--m", "4", "--n", "7..10"]
    classify = ["classify", "--exhaustive", "--k", "7", "--m", "4", "--n"]
    for argv in [
        verify + ["--r", "2", "--connected"],
        verify + ["--r", "3", "--scope", "all"],
        ["oracle", "--n", "10", "--k", "7", "--m", "4", "--r", "2"],
        *(classify + [n] for n in ("7", "8", "9", "10")),
    ]:
        assert cli.main(argv) == 0, argv
    assert computed and max(computed.values()) == 1, computed
    once = Counter(computed)
    assert cli.main(classify + ["7..10"]) == 0
    assert computed - once == Counter({(7, 4, 9, 1): 1, (7, 4, 10, 2): 1})
    capsys.readouterr()


# (forbid_path, forbid_clique) cells of the extremal tests, orders 0..8
EXTREMAL_CELLS = [(5, 3), (6, 4), (7, 4), (None, 3), (6, None)]


def _ties(k, m, r: int) -> bool:
    """Whether no graph of the class has a K_r (r >= m or r >= k), so that
    Enumerator.extremal reads level n instead of scoring: (5,3) and
    (None,3) at r = 3 among the asks of EXTREMAL_CELLS."""
    return (m is not None and r >= m) or (k is not None and r >= k)


def _extremal_asks(k, m, n: int) -> dict:
    """enumerate_graphs with extremal_r = r for r in {2, 3}, with and
    without connected_only and edge_maximal, keyed by (config, r), the
    config without extremal_r."""
    configs = [
        EnumerationConfig(
            n=n, forbid_path=k, forbid_clique=m,
            connected_only=connected, edge_maximal=maximal,
        )
        for connected in (False, True)
        for maximal in (False, True)
    ]
    return {
        (config, r): enumerate_graphs(replace(config, extremal_r=r))
        for config in configs
        for r in (2, 3)
    }


def _most_cliques(config: EnumerationConfig, r: int) -> list:
    """The graphs of the labelled level config.n, after config's final
    filters, with the most K_r."""
    full = enumerate_graphs(config)
    best = max(count_cliques(g, r) for g in full)
    return [g for g in full if count_cliques(g, r) == best]


def test_extremal_matches_the_labelled_level(monkeypatch):
    """enumerate_graphs with extremal_r = r, which scores the unlabelled
    children of order n and labels only the winners, returns exactly the
    graphs of the labelled level n, after the same final filters, with
    the most K_r: for r in {2, 3}, n = 0..8, with and without
    connected_only and edge_maximal.  Each order is asked first with
    level n not yet labelled, and again once it is; candidates are
    computed once per order, when its level is labelled.  A cell where
    every class ties at r = 3 (_ties) stores level n at that ask."""
    computed = []
    candidates = oracle._candidates

    def spy(parents, k, m, bound, budget):
        computed.append(parents[0][0].n + 1)
        return candidates(parents, k, m, bound, budget)

    monkeypatch.setattr(oracle, "_candidates", spy)
    ties = 0
    for k, m in EXTREMAL_CELLS:
        enumerator = Enumerator()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        computed.clear()
        for n in range(9):
            cold = _extremal_asks(k, m, n)
            stored = n + 1 if _ties(k, m, 3) else max(n, 1)
            assert set(enumerator.levels) == _unfiltered_keys(k, m, stored), (k, m, n)
            for (config, r), got in cold.items():
                want = _most_cliques(config, r)
                assert got == want, (config, r)
                assert enumerate_graphs(replace(config, extremal_r=r)) == want, (config, r)
                ties += len(want) > 1
        assert computed == list(range(1, 9)), (k, m)
    assert ties > 60, ties


def _grown_reference(enumerator: Enumerator, k, m, n: int) -> dict:
    """The children of order n grown from the unlabelled candidates of
    order n - 1, by the loop Enumerator.extremal ran before it searched
    only the parents it visits, kept as the reference: each child C of
    order n - 1, in order, is built and mapped to every mask of
    _attachable_masks(C), which gives the new vertex maximum degree."""
    out = {}
    for g, mask in enumerator.children(k, m, n - 1):
        child = _attach(g, mask)
        out[child] = _attachable_masks(child, k, m)
    return out


def _top_order_spy(monkeypatch, searched: list) -> None:
    """Record (graph, most) in searched for every call of
    _attachable_masks with most: the roots and the parents that
    Enumerator.extremal searches."""
    attachable = oracle._attachable_masks

    def spy(g, *args, **kwargs):
        if kwargs.get("most") is not None:
            searched.append((g, kwargs["most"]))
        return attachable(g, *args, **kwargs)

    monkeypatch.setattr(oracle, "_attachable_masks", spy)


def _step_searches(searched: list, enumerator: Enumerator, k, m, n: int) -> list:
    """The roots that a cold Enumerator.extremal at order n >= 1 expanded,
    from the (graph, most) calls _top_order_spy recorded, after checking
    each search, with s = min(3, n) steps: every search was given
    most = δ + 1, every graph searched of order n - s is a graph of level
    n - s (a root), and every one of order n - j, 1 <= j < s, is a
    min-degree child D + v(M) of a graph D of order n - j - 1 searched
    before it, M one of D's attachable masks of at most δ(D) + 1
    vertices, or, once a cell where every class ties has stored level
    n - j (_ties), a graph of that level, searched in fewer steps."""
    low = n - min(3, n)
    roots, children, stored = [], set(), {}
    for g, most in searched:
        assert most == g.min_degree() + 1, (k, m, n)
        if g.n not in stored:
            stored[g.n] = {c for c, _gens, _code in enumerator.levels.get((k, m, g.n, 0), [])}
        if g.n == low:
            assert g in stored[g.n], (k, m, n)
            roots.append(g)
        else:
            assert low < g.n < n and (g in children or g in stored[g.n]), (k, m, n)
        if g.n < n - 1:
            children |= {_attach(g, x) for x in _attachable_masks(g, k, m, most=most)}
    return roots


def test_extremal_from_unlabelled_parents(monkeypatch):
    """Asked cold, with a fresh enumerator per n, enumerate_graphs with
    extremal_r = r labels no graph of order n - 1 or n - 2 above level 0
    and computes no candidate list of those orders, and that of each
    order it labels once: it bounds order n from level
    n - 3 (level 0 for n <= 3) through min(3, n) minimum-degree steps
    (_step_searches), and still returns exactly the graphs of the
    labelled level n, after the same final filters, with the most K_r,
    over the cells, r, connected_only and edge_maximal of
    test_extremal_matches_the_labelled_level; a cell where every class
    ties at r = 3 (_ties) stores levels n - 2, n - 1 and n at that ask
    instead.  A cold ex_oracle(9, 7, 4, 2) labels no graph on 7 or 8
    vertices and gives what it gives with level 8 labelled."""
    searched, computed = [], []
    _top_order_spy(monkeypatch, searched)
    candidates = oracle._candidates

    def spy(parents, k, m, bound, budget):
        computed.append(parents[0][0].n + 1)
        return candidates(parents, k, m, bound, budget)

    monkeypatch.setattr(oracle, "_candidates", spy)
    for k, m in EXTREMAL_CELLS:
        for n in range(9):
            enumerator = Enumerator()
            monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
            searched.clear()
            computed.clear()
            cold = _extremal_asks(k, m, n)
            stored = n + 1 if _ties(k, m, 3) else max(n - 2, 1)
            assert set(enumerator.levels) == _unfiltered_keys(k, m, stored), (k, m, n)
            assert computed == list(range(1, stored)), (k, m, n)
            if n >= 1:
                assert _step_searches(searched, enumerator, k, m, n), (k, m, n)
            for (config, r), got in cold.items():
                assert got == _most_cliques(config, r), (config, r)
    labelled = []

    def spy(g):
        labelled.append(g.n)
        return canonical_with_generators(g)

    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    monkeypatch.setattr(oracle, "canonical_with_generators", spy)
    cold = ex_oracle(9, 7, 4, 2)
    assert 7 not in labelled and 8 not in labelled and 9 in labelled
    enumerator = Enumerator()
    enumerator.chain(7, 4, 8)
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    assert ex_oracle(9, 7, 4, 2) == cold


def _full_scoring(reference: dict, r: int, connected: bool) -> list:
    """The graphs with the most K_r (connected ones only, if connected)
    among the children of the parents and masks of reference
    (_grown_reference), each built and counted whole, with no bound, in
    canonical labels, sorted by code."""
    scored = []
    for parent, masks in reference.items():
        for x in masks:
            child = _attach(parent, x)
            if not connected or is_connected(child):
                scored.append((count_cliques(child, r), parent, x))
    best = max(score for score, _parent, _x in scored)
    top = [(parent, x) for score, parent, x in scored if score == best]
    return [cf for cf, _gens, _code in oracle._label(top, Budget())]


def test_bounded_scoring_equals_full_scoring(monkeypatch):
    """Enumerator.extremal bounds its parents and visits them best bound
    first, and stops at the first bound strictly below the best score.
    For every cell of EXTREMAL_CELLS at n = 2..9 and (8,5) at n = 9, for
    r in {2, 3}, connected or not, it is asked three times, and every
    answer equals the graphs that scoring every child of every parent
    with every maximum-degree mask gives (_full_scoring), tied classes
    included:
    - cold, it stores nothing of order n - 1 or n - 2 above level 0 and
      takes min(3, n) minimum-degree steps from the roots of level n - 3,
      or level 0 (_step_searches); at (7,4) and (8,5), n = 9, some root is
      never expanded; where every class ties at r = 3 (_ties), that ask
      comes last and stores levels n - 2, n - 1 and n;
    - with level n - 2 stored and level n - 1 not, it takes two steps:
      every graph it searches of order n - 2 is a graph of that level;
    - with level n - 1 stored, it takes one step: every parent C it
      searches is a graph of that level, searched with most = δ(C) + 1.
    Parents whose bound equals the best must be visited: (7,4) at n = 9
    has four extremal classes at r = 2."""
    searched = []
    _top_order_spy(monkeypatch, searched)
    ties = 0
    for k, m, n in [(k, m, n) for k, m in EXTREMAL_CELLS for n in range(2, 10)] + [(8, 5, 9)]:
        reference = _grown_reference(Enumerator(), k, m, n)
        want = {
            (r, connected): _full_scoring(reference, r, connected)
            for r in (2, 3)
            for connected in (False, True)
        }
        ties += sum(len(got) > 1 for got in want.values())
        cold = Enumerator()
        searched.clear()
        for (r, connected), best in want.items():
            assert cold.extremal(k, m, n, r, connected) == best, (k, m, n, r, connected)
        for j in range(1, min(3, n)):
            assert ((k, m, n - j, 0) in cold.levels) == _ties(k, m, 3), (k, m, n)
        roots = _step_searches(searched, cold, k, m, n)
        if (k, m, n) in {(7, 4, 9), (8, 5, 9)}:
            assert len(set(roots)) < len(cold.levels[k, m, n - 3, 0]), (k, m, n)
        middle = Enumerator()
        level = {g for g, _gens, _code in middle.level(k, m, n - 2)}
        searched.clear()
        for (r, connected), best in want.items():
            assert middle.extremal(k, m, n, r, connected) == best, (k, m, n, r, connected)
        orders = {c.n for c, _most in searched}
        assert n - 2 in orders and orders <= {n - 2, n - 1}, (k, m, n)
        for c, most in searched:
            assert c.n == n - 1 or (c in level and most == c.min_degree() + 1), (k, m, n)
        warm = Enumerator()
        level = {g for g, _gens, _code in warm.level(k, m, n - 1)}
        searched.clear()
        for (r, connected), best in want.items():
            assert warm.extremal(k, m, n, r, connected) == best, (k, m, n, r, connected)
        assert searched and all(c in level and most == c.min_degree() + 1 for c, most in searched)
    assert len(Enumerator().extremal(7, 4, 9, 2, False)) == 4
    assert ties > 30, ties


def test_steps_are_capped_at_the_order(monkeypatch):
    """Cold asks at n = 2 and 3 take n minimum-degree steps, from the one
    root on 0 vertices, as n - 3 is no order: every graph searched has
    order below n, the graph on 0 vertices is searched once, and for
    (5,3), (None,3) and (6,None), r in {2, 3}, connected or not, the
    answer equals _full_scoring.  Where every class ties at r = 3 (_ties)
    the ask reads level n and searches nothing."""
    searched = []
    _top_order_spy(monkeypatch, searched)
    for k, m in [(5, 3), (None, 3), (6, None)]:
        for n in (2, 3):
            reference = _grown_reference(Enumerator(), k, m, n)
            for r in (2, 3):
                for connected in (False, True):
                    searched.clear()
                    cold = Enumerator()
                    got = cold.extremal(k, m, n, r, connected)
                    assert got == _full_scoring(reference, r, connected), (k, m, n, r)
                    if _ties(k, m, r):
                        assert not searched
                        continue
                    orders = [g.n for g, _most in searched]
                    assert orders.count(0) == 1 and max(orders) < n, (k, m, n, r)
                    assert _step_searches(searched, cold, k, m, n) == [Graph(0, ())]


def test_top_order_searches_few_parents(monkeypatch):
    """A fresh Enumerator().extremal(7, 4, 9, r, connected) bounds each of
    the 120 roots of level 6 by N_r(D) + min(N_{r-1}(D), C(δ(D) + 1,
    r - 1)) + C(δ(D) + 2, r - 1) + C(δ(D) + 3, r - 1), and searches only
    the roots, the unlabelled graphs of order 7 and the parents of order 8
    it visits, one per degree key (oracle._degree_key) at each order
    above the roots: 78, 19 and 9 at r = 2, 78, 30 and 32 at r = 2
    connected, 91, 14 and 3 at r = 3, and 94, 45 and 37 at r = 3
    connected.  It stores no level of order 7 or 8.  A fresh
    Enumerator().extremal(9, 5, 9, 2, False) searches 16, 49 and 434
    graphs of orders 6, 7 and 8 (2,208 of order 8 when every copy of a
    class was searched).  These are counts of the searches, not times."""
    searched = []
    _top_order_spy(monkeypatch, searched)
    for k, m, r, connected, counts in [
        (7, 4, 2, False, (78, 19, 9)), (7, 4, 2, True, (78, 30, 32)),
        (7, 4, 3, False, (91, 14, 3)), (7, 4, 3, True, (94, 45, 37)),
        (9, 5, 2, False, (16, 49, 434)),
    ]:
        enumerator = Enumerator()
        searched.clear()
        enumerator.extremal(k, m, 9, r, connected)
        if (k, m) == (7, 4):
            assert len(enumerator.levels[7, 4, 6, 0]) == 120
        orders = [c.n for c, _most in searched]
        assert tuple(orders.count(i) for i in (6, 7, 8)) == counts, (k, m, r, connected)
        assert len(orders) == sum(counts)
        assert not any(key[2] >= 7 for key in enumerator.levels)


# (forbid_path, forbid_clique) cells of the tests of the top order's store
STORE_CELLS = [(7, 4), (8, 5), (6, 4), (5, 3)]


def _seeded(source: Enumerator, k, m, below: int) -> Enumerator:
    """A fresh Enumerator holding only source's unfiltered levels 0, ...,
    below - 1 of (k, m).  Any enumerator labels these levels alike, from
    its own labelled levels, so the fresh one answers as a cold one does;
    it only skips labelling them again."""
    fresh = Enumerator()
    for key in _unfiltered_keys(k, m, below):
        fresh.levels[key] = source.level(*key)
    return fresh


def test_a_warm_store_answers_as_fresh_enumerators():
    """One warm Enumerator answers a grid of extremal asks in a shuffled,
    mixed order: the cells of STORE_CELLS, n = 0..9, r in {2, 3, 4},
    connected or not, with level n - 1 stored before the ask or not.
    Every answer equals that of a fresh Enumerator per ask, which holds
    only the levels the ask reads (_seeded): level n - 1, or else level
    n - 3, as a cold ask does; so nothing it searched before the ask is
    reused.  Before each ask, the warm one is asked once with a budget
    that runs out at a random check of the extremal stage (_Countdown),
    often inside a keyed visit below the roots; the timed-out call leaves
    only whole entries, degree keys included (_check_entry), and the
    retried ask still answers as the fresh one."""
    asks = [
        (k, m, n, r, connected, stored)
        for k, m in STORE_CELLS
        for n in range(10)
        for r in (2, 3, 4)
        for connected in (False, True)
        for stored in (False, True)
    ]
    random.Random(33).shuffle(asks)
    warm, levels = Enumerator(), Enumerator()
    stops = random.Random(36)
    timed_out, keyed = 0, set()
    for k, m, n, r, connected, stored in asks:
        if stored and n >= 1:
            warm.level(k, m, n - 1)
        fresh = _seeded(levels, k, m, n if stored else max(n - 2, 1))
        want = fresh.extremal(k, m, n, r, connected)
        try:
            warm.extremal(k, m, n, r, connected, _Countdown(stops.randrange(400)))
        except BudgetExceeded:
            timed_out += 1
            for (k_, m_, order), entries in warm.searched.items():
                for rows, entry in entries.items():
                    if entry.key is not None and (k_, m_, rows) not in keyed:
                        _check_entry(k_, m_, Graph(order, rows), entry)
                        keyed.add((k_, m_, rows))
        assert warm.extremal(k, m, n, r, connected) == want, (k, m, n, r, connected, stored)
    assert warm.searched and timed_out > 50 and len(keyed) > 1000, (timed_out, len(keyed))


def test_degree_keys_are_the_graph_relabelled():
    """oracle._degree_key, on the rows of every graph of the (7,4) levels
    6-8 and of three random relabellings of each, gives the rows of a
    valid Graph with the canonical code of the input: equal keys mean
    isomorphic graphs, which is all that the skip of a repeated key in
    Enumerator.extremal rests on."""
    rng = random.Random(36)
    enumerator = Enumerator()
    for n in (6, 7, 8):
        for g, _gens, _code in enumerator.level(7, 4, n):
            code = canonical(g)
            for copy in [g] + [relabel(g, rng.sample(range(n), n)) for _ in range(3)]:
                key = Graph(n, oracle._degree_key(copy.rows))  # checks the rows
                assert canonical(key) == code, (g, copy)


def test_keyed_visits_match_the_unkeyed_search(monkeypatch):
    """Enumerator.extremal visits one graph per degree key at each step
    below its roots.  With the key replaced by the rows themselves, so
    that every graph is its own class and no visit is skipped, the
    answers are the same graph6 lists: cells (7,4), (8,5), (6,4), (5,3)
    and (None,3), n = 1..9, r in {2, 3, 4} where not every class ties
    (_ties, which scores nothing), connected or not, asked from level
    n - 3 (three steps) and from level n - 2 (two).  Each side answers
    the asks of one cell, n and depth on one fresh enumerator seeded with
    those levels (_seeded), so its later asks read the keys stored by
    earlier ones; the keyed side searches fewer graphs."""
    searched = []
    _top_order_spy(monkeypatch, searched)
    source = Enumerator()
    degree_key = oracle._degree_key
    answers, counts = {}, {}
    for key in (degree_key, lambda rows: rows):
        monkeypatch.setattr(oracle, "_degree_key", key)
        searched.clear()
        out = answers[key is degree_key] = {}
        for k, m in [(7, 4), (8, 5), (6, 4), (5, 3), (None, 3)]:
            for n in range(1, 10):
                for below in sorted({max(n - 2, 1), max(n - 1, 1)}):
                    enumerator = _seeded(source, k, m, below)
                    for r in (2, 3, 4):
                        for connected in (False, True):
                            if not _ties(k, m, r):
                                got = enumerator.extremal(k, m, n, r, connected)
                                out[k, m, n, below, r, connected] = [graph6_encode(g) for g in got]
        counts[key is degree_key] = len(searched)
    assert answers[True] == answers[False]
    assert counts[True] < counts[False], counts


def test_repeat_asks_search_no_graph_twice(monkeypatch):
    """Asks of one order with other r or connected, over the same stored
    level, search no graph twice: the top order's store keeps each
    visited graph's masks.  This holds with one step (level n - 1
    stored), with two (only level n - 2 stored, so the unlabelled
    parents are built again but not searched again) and with three (only
    level n - 3 stored, so the unlabelled graphs of both orders above it
    are).  An identical
    repeat ask searches no graph at all and gives the same answer
    (test_a_warm_store_answers_as_fresh_enumerators checks the answers).
    Likewise no graph's degree key is computed twice: none with one
    step, where every visit is of a root, some with two or three, and
    none on a repeat ask."""
    searched, keyed = [], []
    _top_order_spy(monkeypatch, searched)
    degree_key = oracle._degree_key

    def key_spy(rows):
        keyed.append(rows)
        return degree_key(rows)

    monkeypatch.setattr(oracle, "_degree_key", key_spy)
    for k, m, n in [(7, 4, 9), (8, 5, 9), (6, 4, 8)]:
        for below in (n - 1, n - 2, n - 3):
            enumerator = Enumerator()
            enumerator.level(k, m, below)
            searched.clear()
            keyed.clear()
            asks = [(r, connected) for r in (2, 3) for connected in (False, True)]
            answers = [enumerator.extremal(k, m, n, r, connected) for r, connected in asks]
            rows = [g.rows for g, _most in searched]
            assert rows and len(set(rows)) == len(rows), (k, m, n, below)
            assert len(set(keyed)) == len(keyed) and bool(keyed) == (below < n - 1), (k, m, n, below)
            count, keys = len(searched), len(keyed)
            for (r, connected), answer in zip(asks, answers):
                assert enumerator.extremal(k, m, n, r, connected) == answer
                assert len(searched) == count, (k, m, n, below, r, connected)
                assert len(keyed) == keys, (k, m, n, below, r, connected)


def test_storing_a_level_drops_its_searches(monkeypatch):
    """A cold extremal ask at order 9 of (7,4) keeps the searches of its
    roots, of order 6, and of its unlabelled graphs of orders 7 and 8;
    only the latter are visited below the roots and keep degree keys.
    Storing level 7 drops the entries of order 7 and keeps the others;
    storing level 8 then drops those of order 8 and keeps the roots'.  A
    one-step ask then stores entries for the graphs of level 8.
    Enumerator.clear, and clear_cache for the shared enumerator, empty
    the store."""
    enumerator = Enumerator()
    enumerator.extremal(7, 4, 9, 2, False)
    assert set(enumerator.searched) == {(7, 4, 6), (7, 4, 7), (7, 4, 8)}
    roots = dict(enumerator.searched[7, 4, 6])
    assert all(entry.key is None for entry in roots.values())
    for order in (7, 8):
        assert any(entry.key for entry in enumerator.searched[7, 4, order].values()), order
    enumerator.level(7, 4, 7)
    assert set(enumerator.searched) == {(7, 4, 6), (7, 4, 8)}
    enumerator.level(7, 4, 8)
    assert set(enumerator.searched) == {(7, 4, 6)}
    assert enumerator.searched[7, 4, 6] == roots
    enumerator.extremal(7, 4, 9, 2, False)
    level = {g.rows for g, _gens, _code in enumerator.levels[7, 4, 8, 0]}
    assert enumerator.searched[7, 4, 8] and set(enumerator.searched[7, 4, 8]) <= level
    enumerator.clear()
    assert not enumerator.searched
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    ex_oracle(9, 7, 4, 3, connected=True)
    assert enumerator.searched
    clear_cache()
    assert not enumerator.searched


class _Countdown(Budget):
    """A budget that runs out at its calls-th check of the extremal stage
    (counting from 0; never for calls < 0), and counts those checks in
    done."""

    def __init__(self, calls: int = -1) -> None:
        super().__init__()
        self.calls, self.done = calls, 0

    def check(self, stage: str, **done) -> None:
        if stage == "extremal":
            if self.done == self.calls:
                raise BudgetExceeded("extremal", {"stage": stage})
            self.done += 1


def _check_entry(k, m, g: Graph, entry) -> None:
    """Check that a store entry holds δ, N_j and, when set, the masks and
    the degree key of its graph g."""
    assert entry.low == g.min_degree()
    assert all(entry.cliques[j] == count_cliques(g, j) for j in entry.cliques)
    if entry.masks is not None:
        assert entry.masks == _attachable_masks(g, k, m, most=entry.low + 1)
    if entry.key is not None:
        assert entry.key == oracle._degree_key(g.rows)


def _whole_entries(enumerator: Enumerator, k, m) -> int:
    """Check that every entry of the store holds δ, N_j and, when set, the
    masks and the degree key of its graph (_check_entry); return the
    number of entries."""
    count = 0
    for (k_, m_, order), entries in enumerator.searched.items():
        assert (k_, m_) == (k, m)
        for rows, entry in entries.items():
            _check_entry(k, m, Graph(order, rows), entry)
            count += 1
    return count


def test_a_timed_out_visit_leaves_whole_entries():
    """A BudgetExceeded raised at any of a sample of the extremal stage's
    checks of a cold extremal ask at order 9 of (7,4), with level 6
    stored (the 120 roots), leaves only whole entries in the store (each read back
    against its graph), and the retried call returns the graphs of a
    fresh enumerator.  The later checks of the sample fall in keyed
    visits, below the roots: the degree keys stored by then are whole
    too."""
    for r, connected in [(2, False), (3, True)]:
        want = Enumerator().extremal(7, 4, 9, r, connected)
        total = _Countdown()
        Enumerator().extremal(7, 4, 9, r, connected, total)
        for calls in sorted({0, 1, 120, 121, total.done // 2, total.done - 1}):
            enumerator = Enumerator()
            enumerator.level(7, 4, 6)
            with pytest.raises(BudgetExceeded):
                enumerator.extremal(7, 4, 9, r, connected, _Countdown(calls))
            assert (_whole_entries(enumerator, 7, 4) > 0) == (calls > 0), calls
            keyed = [e.key for entries in enumerator.searched.values() for e in entries.values()]
            if calls >= total.done // 2:
                assert any(keyed), (r, connected, calls)
            assert enumerator.extremal(7, 4, 9, r, connected) == want, (r, connected, calls)
            _whole_entries(enumerator, 7, 4)


def test_verify_grows_the_largest_order_first(monkeypatch):
    """A cold verify_theorem((7, 4, 2), 7..10) checks its range, then
    labels level 7, N - 3 for N the largest n, so the orders 7 and 8
    read labelled parent levels, order 9 takes two minimum-degree steps
    and order 10 three, from level 7: each order 1..7 of _candidates is
    computed once, levels 8 and 9 are never labelled and no candidate of
    order 8 or 9 is grown.  Its data equals four single-n sweeps, each on a fresh
    enumerator, where every n takes three steps.  A range that holds an order above the cap,
    or below δ_k + 2, raises before anything is enumerated."""
    computed = []
    candidates = oracle._candidates

    def spy(parents, k, m, bound, budget):
        computed.append(parents[0][0].n + 1)
        return candidates(parents, k, m, bound, budget)

    monkeypatch.setattr(oracle, "_candidates", spy)
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    params = TheoremParams(7, 4, 2)
    rows = verify_theorem(params, range(7, 11))
    assert computed == list(range(1, 8))
    assert set(enumerator.levels) == _unfiltered_keys(7, 4, 8)
    singles = []
    for n in range(7, 11):
        monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
        singles += verify_theorem(params, range(n, n + 1))

    def data(rows):
        return [replace(row, runtime_ms=0.0) for row in rows]

    assert data(rows) == data(singles)
    computed.clear()
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    for n_range in (range(11, 12), range(7, 12)):
        with pytest.raises(CapExceeded):
            verify_theorem(params, n_range)
    for n_range in (range(params.delta + 1, 11), range(10, params.delta, -1)):
        with pytest.raises(ParameterError):
            verify_theorem(params, n_range)
    assert computed == [] and not enumerator.levels


def test_verify_skips_levels_n_minus_two_and_one(monkeypatch):
    """verify_theorem((7, 4, r), 7..9), r in {2, 3}, either scope, labels
    level 6, N - 3, and not level 7: order 9 takes three minimum-degree
    steps and order 8 two.  Its rows, runtime_ms aside, equal those of
    the same sweep on an enumerator where level 7 was stored first, so
    that order 9 takes two steps and order 8 one."""

    def data(rows):
        return [replace(row, runtime_ms=0.0) for row in rows]

    for r in (2, 3):
        for scope in ("connected", "all"):
            params = TheoremParams(7, 4, r)
            enumerator = Enumerator()
            monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
            rows = verify_theorem(params, range(7, 10), scope)
            assert set(enumerator.levels) == _unfiltered_keys(7, 4, 7), (r, scope)
            enumerator = Enumerator()
            enumerator.level(7, 4, 7)
            monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
            assert data(verify_theorem(params, range(7, 10), scope)) == data(rows), (r, scope)


def test_extremal_r_validation():
    with pytest.raises(ParameterError):
        EnumerationConfig(n=5, forbid_path=5, extremal_r=1)
    with pytest.raises(ParameterError):
        EnumerationConfig(n=5, forbid_path=5, extremal_r=2, min_degree=1)


def test_levels_stop_at_the_order_asked():
    _ENUMERATOR.chain(7, 4, 8)
    assert len(_ENUMERATOR.chain(7, 4, 6)) == 7
    assert len(_ENUMERATOR.chain(7, 4, 8)) == 9


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
        for level in _ENUMERATOR.chain(k, m, 7):
            for g, gens, code in level:
                matcher = GraphMatcher(_nx_graph(g), _nx_graph(g))
                count = sum(1 for _ in matcher.isomorphisms_iter())
                assert group_order(g.n, gens) == count, (k, m, code)
                checked += 1
    assert checked == 1341
    structured = [h_extremal(10, m, k) for k, m in ((7, 4), (8, 5), (10, 4), (9, 6))]
    structured += [turan(10, p) for p in (2, 3, 5)] + [double_star(5, 5)]
    for g in structured:
        _cf, gens = canonical_with_generators(g)
        assert group_order(g.n, gens) == _nx_automorphism_count(g)


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
    # a negative bound is no bound, and is stored under δ = 0
    assert enumerate_graphs(EnumerationConfig(n=6, forbid_path=5, min_degree=-1)) == base
    assert all(key[3] >= 0 for key in _ENUMERATOR.levels)
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
        level = _ENUMERATOR.chain(k, m, n)[n]
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
    # a descending range reports its least and largest n
    report = verify_classification(7, 4, range(9, 6, -1))
    assert report["n_range"] == [7, 9]
    assert report == verify_classification(7, 4, range(7, 10))


def test_verify_classification_has_class3():
    # the smallest composites matching only class (3) appear at n = 9;
    # smaller ones are caught earlier by the fixed class order
    report = verify_classification(7, 4, range(7, 10))
    assert report["ok"]
    assert "Class3-G4" in report["histogram"] or "Class3-G5" in report["histogram"]


def test_enumerated_graphs_satisfy_constraints():
    for g in enumerate_graphs(EnumerationConfig(n=7, forbid_path=6, forbid_clique=4)):
        assert is_free(g, 6, 4)


def test_budget_checks_and_stats():
    """Budget() never runs out and has no time left to report.  Budget(0)
    has run out at once: check raises with the stage and either the
    counts given (the n reached and the rest) or else the last chain the
    budget was handed to (the last completed level and the level sizes),
    and left() is 0.0.  The enumeration checks it once per parent
    (_candidates) and once per child labelled (_label)."""
    levels = _ENUMERATOR.chain(7, 4, 4)
    unlimited = Budget()
    _ENUMERATOR.chain(7, 4, 4, budget=unlimited)
    unlimited.check("levels")
    unlimited.check("family", n=9, rows=2)
    assert unlimited.left() is None
    spent = Budget(0)
    # the chain is stored, so reading it checks nothing
    _ENUMERATOR.chain(7, 4, 4, budget=spent)
    with pytest.raises(BudgetExceeded) as info:
        spent.check("levels")
    assert info.value.stats == {
        "stage": "levels",
        "completed_levels": len(levels) - 1,
        "level_sizes": [len(l) for l in levels],
    }
    assert "levels stage after level 4" in str(info.value)
    with pytest.raises(BudgetExceeded) as info:
        spent.check("family", n=9, rows=2)
    assert info.value.stats == {"stage": "family", "n": 9, "rows": 2}
    assert "family stage at n = 9" in str(info.value)
    assert spent.left() == 0.0
    checks = []

    class Counting(Budget):
        def check(self, stage, **done):
            checks.append((stage, len(self.level_sizes)))

    counting = Counting()
    _ENUMERATOR.chain(7, 4, 4, budget=counting)
    candidates = oracle._candidates(levels[-1], 7, 4, 0, counting)
    assert checks == [("levels", 5)] * len(levels[-1])
    checks.clear()
    oracle._label(candidates, counting)
    assert checks == [("levels", 5)] * len(candidates) and candidates


def test_budget_stats_over_a_warm_store(monkeypatch):
    """The stats name the chain a stage stands on also when the store is
    warm, so that the stage reads no level before its first check.
    Level 9 of (7,4), over the chain to 8 that an earlier call stored,
    raises in the levels stage after level 8, with the sizes of the chain
    to 8.  The extremal graphs on 9 vertices, bounded from the stored
    level 6 through three minimum-degree steps, which grow nothing of
    order 7 or 8, raise in the extremal stage after level 6, with the
    sizes of the chain to 6."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerator.chain(7, 4, 8)
    ex_oracle(9, 7, 4, 2)
    assert (7, 4, 9, 0) not in enumerator.levels
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(EnumerationConfig(n=9, forbid_path=7, forbid_clique=4, time_budget_s=0))
    assert info.value.stats == {
        "stage": "levels",
        "completed_levels": 8,
        "level_sizes": [len(l) for l in enumerator.chain(7, 4, 8)],
    }
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    ex_oracle(9, 7, 4, 2)
    assert not any(key[2] >= 7 for key in enumerator.levels)
    config = EnumerationConfig(
        n=9, forbid_path=7, forbid_clique=4, extremal_r=3, time_budget_s=0
    )
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    assert info.value.stats == {
        "stage": "extremal",
        "completed_levels": 6,
        "level_sizes": [len(l) for l in enumerator.chain(7, 4, 6)],
    }


class _JumpingClock:
    """A stand-in for the time module that oracle reads, and Budget with
    it: monotonic() is the real clock until jump(), and from then on it
    reads 10**6 s later, past every deadline of these tests.  jumped is
    the real time of the first jump."""

    def __init__(self) -> None:
        self.offset, self.jumped = 0.0, None

    def monotonic(self) -> float:
        return time.monotonic() + self.offset

    def jump(self) -> None:
        if self.jumped is None:
            self.jumped, self.offset = time.monotonic(), 1e6


def test_time_budget_overshoot_and_recovery(monkeypatch):
    """From a cold cache, ex_oracle(10, None, 3, 2) labels the triangle-free
    levels to 7, expands the roots of level 7 into unlabelled graphs of
    order 8, those into unlabelled parents of order 9, and then scores
    the children on 10 vertices, so the last complete level is 7.
    The clock jumps past the deadline at the first score, so the deadline
    passes inside the order-10 stage, where a check made only between levels
    would not fire at all.  The jump is an event of the run, not a
    measured time, so this holds on a host of any speed.  The call stops
    within 2 s of the jump, and the interrupted level was not cached
    half-built."""
    clear_cache()
    clock = _JumpingClock()
    score = oracle.count_cliques_in

    def first_score(*args):
        clock.jump()
        return score(*args)

    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(oracle, "count_cliques_in", first_score)
    with pytest.raises(BudgetExceeded) as info:
        ex_oracle(10, None, 3, 2, time_budget_s=60.0)
    assert time.monotonic() - clock.jumped < 2.0
    monkeypatch.undo()
    stats = info.value.stats
    done = stats["completed_levels"]
    assert stats["stage"] == "extremal" and done == 7
    assert len(stats["level_sizes"]) == done + 1
    # the interrupted level was not cached half-built
    config = EnumerationConfig(n=done + 1, forbid_clique=3)
    resumed = enumerate_graphs(config)
    clear_cache()
    assert enumerate_graphs(config) == resumed


def test_time_budget_in_classification(monkeypatch, capsys):
    """The budget is checked once per classified graph.  With the levels
    of the (7,4) inputs on 7 and 8 vertices warm (order 9 labels only its
    connected candidates, and stores no level) and a 60 s budget, the clock jumps past the deadline at the
    4th classification, while the 10 graphs on 7 vertices are
    classified: the sweep stops within one classification
    of the jump, the stats name the stage and the n reached, and
    classify --exhaustive, with a fresh clock that jumps the same way,
    exits 3 and reports the budget, not the cap, with the stage."""
    verify_classification(7, 4, range(7, 10))
    classified = []
    clock = _JumpingClock()

    def jump_at_4(g, k, m):
        classified.append(g)
        if len(classified) == 4:
            clock.jump()
        return classify_structure(g, k, m)

    # verify_classification reads classify_structure from detect per call
    monkeypatch.setattr(detect, "classify_structure", jump_at_4)
    monkeypatch.setattr(oracle, "time", clock)
    with pytest.raises(BudgetExceeded) as info:
        verify_classification(7, 4, range(7, 10), 60.0)
    assert time.monotonic() - clock.jumped < 0.5
    assert info.value.stats == {"stage": "classify", "n": 7, "classified": len(classified)}
    assert 0 < len(classified) < 10
    classified.clear()
    clock = _JumpingClock()
    monkeypatch.setattr(oracle, "time", clock)
    argv = ["classify", "--exhaustive", "--k", "7", "--m", "4", "--n", "7..9"]
    capsys.readouterr()
    assert cli.main(argv + ["--budget", "60"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:") and "classify stage" in err, err
    assert time.monotonic() - clock.jumped < 0.5


def test_time_budget_in_the_family_checks(monkeypatch):
    """verify_theorem checks the deadline before each n's check of the
    predicted family.  With the oracle's answers for (7,4), r = 2, n =
    7..9 computed beforehand and served at once, and a 60 s budget, the
    clock jumps past the deadline in the family check of n = 8, after
    that of n = 7: the sweep stops within one family check of the jump,
    the stats name the stage, the n reached and the rows done, and
    verify, with a fresh clock that jumps the same way, exits 3."""
    answers = {n: ex_oracle(n, 7, 4, 2, connected=True) for n in range(7, 10)}
    checked = []
    family = oracle._predicted_family
    clock = _JumpingClock()

    def jump_at_8(n, *args):
        checked.append(n)
        if n == 8:
            clock.jump()
        return family(n, *args)

    monkeypatch.setattr(oracle, "ex_oracle", lambda n, *args, **kwargs: answers[n])
    monkeypatch.setattr(oracle, "_predicted_family", jump_at_8)
    monkeypatch.setattr(oracle, "time", clock)
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem(TheoremParams(7, 4, 2), range(7, 10), "connected", 60.0)
    assert time.monotonic() - clock.jumped < 0.5
    assert checked == [7, 8]
    assert info.value.stats == {"stage": "family", "n": 9, "rows": 2}
    clock = _JumpingClock()
    monkeypatch.setattr(oracle, "time", clock)
    argv = ["verify", "--k", "7", "--m", "4", "--r", "2", "--n", "7..9", "--connected"]
    assert cli.main(argv + ["--budget", "60"]) == 3
    assert time.monotonic() - clock.jumped < 0.5


def test_one_budget_per_command(monkeypatch):
    """verify and classify give the whole sweep one budget: each n gets the
    time left, so no n's deadline is later than the command's.  A cold
    (7,4) verify over n = 7..10 is given 60 s, and the clock jumps past
    the deadline at the first score of a child on 10 vertices, inside the
    last n: the sweep stops within one parent's extensions of the jump
    (0.5 s allowed for scheduling), before level 10 is complete."""
    deadlines = []

    def recorder(real, budget_of):
        def call(*args, **kwargs):
            budget = budget_of(*args, **kwargs)
            if budget is not None:  # not the classifier's own enumerations
                deadlines.append(time.monotonic() + budget)
            return real(*args, **kwargs)

        return call

    clock = _JumpingClock()
    score = oracle.count_cliques_in

    def score_order_10(g, mask, r):
        if g.n == 9:
            clock.jump()
        return score(g, mask, r)

    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(oracle, "count_cliques_in", score_order_10)
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    monkeypatch.setattr(
        oracle, "ex_oracle",
        recorder(ex_oracle, lambda *args, time_budget_s, **kwargs: time_budget_s),
    )
    budget = 60.0
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        verify_theorem(TheoremParams(7, 4, 2), range(7, 11), "connected", budget)
    assert time.monotonic() - clock.jumped < 0.5
    assert info.value.stats["completed_levels"] < 10
    assert len(deadlines) >= 2 and max(deadlines) <= t0 + budget + 0.01, deadlines

    monkeypatch.undo()
    deadlines.clear()
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    monkeypatch.setattr(
        oracle, "enumerate_graphs",
        recorder(enumerate_graphs, lambda config: config.time_budget_s),
    )
    budget = 60.0
    t0 = time.monotonic()
    verify_classification(7, 4, range(7, 10), budget)
    assert len(deadlines) == 3 and max(deadlines) <= t0 + budget + 0.01, deadlines


def test_verify_reports_the_shared_first_step(monkeypatch):
    """verify_theorem starts the clock of the first n's row before it labels
    level N - 3 for the whole range, so that row carries the step.  The
    clock jumps 10**6 s in that step (the first children call): the row
    of n = 7 reads at least 10**9 ms, and the other rows, timed after the
    jump, read less."""
    clock = _JumpingClock()
    children = Enumerator.children

    def jump_first(self, *args, **kwargs):
        clock.jump()
        return children(self, *args, **kwargs)

    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(Enumerator, "children", jump_first)
    rows = verify_theorem(TheoremParams(7, 4, 2), range(7, 10))
    runtime = {row.n: row.runtime_ms for row in rows}
    assert runtime[7] >= 1e9 and runtime[8] < 1e9 and runtime[9] < 1e9, runtime


def test_time_budget_inside_the_filtered_chain(monkeypatch):
    """The deadline is checked per parent in look-ahead steps too.  With
    the unfiltered triangle-free levels to 8 cached, the filtered steps to
    n = 10, δ = 2 grow levels 9 and 10.  The budget is 60 s, and the clock
    jumps past the deadline at the first parent of the second step (a
    parent on 9 vertices), so the deadline passes inside that step, at an
    event of the run and not at a measured time.  The call stops within
    2 s of the jump, the stats name the levels completed, the filtered
    chain holds only whole levels, and a resumed run gives what a cold one
    does."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    enumerator.chain(None, 3, 8)
    clock = _JumpingClock()
    attachable = oracle._attachable_masks

    def jump_at_step_2(g, *args):
        if g.n == 9:
            clock.jump()
        return attachable(g, *args)

    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(oracle, "_attachable_masks", jump_at_step_2)
    budget = 60.0
    config = EnumerationConfig(n=10, forbid_clique=3, min_degree=2, time_budget_s=budget)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    assert time.monotonic() - clock.jumped < 2.0
    stats = info.value.stats
    done = stats["completed_levels"]
    assert 8 <= done < 10
    assert len(stats["level_sizes"]) == done + 1
    assert stats["level_sizes"][:9] == [len(l) for l in enumerator.chain(None, 3, 8)]
    # the interrupted filtered level was not cached half-built
    filtered = {key for key in enumerator.levels if key[3]}
    assert filtered == {(None, 3, n, n - 8) for n in range(9, done + 1)}
    unbudgeted = replace(config, time_budget_s=None)
    resumed = enumerate_graphs(unbudgeted)
    enumerator.clear()
    assert enumerate_graphs(unbudgeted) == resumed


def test_time_budget_inside_a_skipped_step(monkeypatch):
    """The deadline is checked per unlabelled parent in a skipped step.
    From a fresh enumerator, level (10, 2) of (7,4) is grown from the
    unlabelled candidates of level (9, 1), which rest on level 8 labelled.
    The budget is 60 s, and the clock jumps past the deadline at the first
    unlabelled parent (a graph on 9 vertices), so the call raises in the
    levels stage after level 8, with the sizes of the chain to 8.  It
    stores no level above 8, and a resumed run gives what a cold one
    does."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    clock = _JumpingClock()
    attachable = oracle._attachable_masks

    def jump_at_order_9(g, *args):
        if g.n == 9:
            clock.jump()
        return attachable(g, *args)

    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(oracle, "_attachable_masks", jump_at_order_9)
    config = EnumerationConfig(
        n=10, forbid_path=7, forbid_clique=4, min_degree=2, time_budget_s=60.0
    )
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    assert time.monotonic() - clock.jumped < 2.0
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    assert info.value.stats == {
        "stage": "levels",
        "completed_levels": 8,
        "level_sizes": [len(l) for l in _ENUMERATOR.chain(7, 4, 8)],
    }
    assert set(enumerator.levels) == _unfiltered_keys(7, 4, 9)
    unbudgeted = replace(config, time_budget_s=None)
    resumed = enumerate_graphs(unbudgeted)
    enumerator.clear()
    assert enumerate_graphs(unbudgeted) == resumed


def test_time_budget_inside_the_bounded_stage(monkeypatch):
    """The deadline is checked per visited graph at each step of the top
    order.  From a fresh enumerator, ex_oracle(9, 7, 4, 2) visits
    unlabelled graphs of order 7, the children of the roots of level 6
    labelled, and unlabelled parents of order 8, their children.  The
    budget is 60 s, and the clock jumps past the deadline while the first
    visited graph of order 7, and in a second call of order 8, is
    searched, so each call raises in the extremal stage after level 6,
    with the sizes of the chain to 6.  No other graph of that order is
    searched, the levels 0..6 are stored whole, no level above 6 is
    stored, and a resumed call gives what a cold one does."""
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    want = ex_oracle(9, 7, 4, 2)
    for order in (7, 8):
        enumerator = Enumerator()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        clock = _JumpingClock()
        attachable = oracle._attachable_masks
        searched = []

        def jump_at_order(g, *args, **kwargs):
            if g.n == order:
                clock.jump()
                searched.append(g)
            return attachable(g, *args, **kwargs)

        monkeypatch.setattr(oracle, "time", clock)
        monkeypatch.setattr(oracle, "_attachable_masks", jump_at_order)
        with pytest.raises(BudgetExceeded) as info:
            ex_oracle(9, 7, 4, 2, time_budget_s=60.0)
        assert time.monotonic() - clock.jumped < 2.0
        monkeypatch.undo()
        monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
        assert info.value.stats == {
            "stage": "extremal",
            "completed_levels": 6,
            "level_sizes": [len(l) for l in enumerator.chain(7, 4, 6)],
        }, order
        assert len(searched) == 1, order
        assert set(enumerator.levels) == _unfiltered_keys(7, 4, 7)
        assert ex_oracle(9, 7, 4, 2) == want, order


def test_time_budget_while_a_root_is_expanded(monkeypatch):
    """The deadline is checked per root bounded and per root expanded at
    the top order.  From a fresh enumerator, ex_oracle(9, 7, 4, 2) bounds
    order 9 from the roots of level 6.  The budget is 60 s, and the clock
    jumps past the deadline while the first root is expanded, so the call
    raises in the extremal stage after level 6, with the sizes of the
    chain to 6, before any other root is expanded.  It stores no level of
    order 7 or 8, and a resumed call gives what a cold one does."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    clock = _JumpingClock()
    attachable = oracle._attachable_masks
    expanded = []

    def jump_at_order_6(g, *args, **kwargs):
        if g.n == 6 and kwargs.get("most") is not None:
            clock.jump()
            expanded.append(g)
        return attachable(g, *args, **kwargs)

    monkeypatch.setattr(oracle, "time", clock)
    monkeypatch.setattr(oracle, "_attachable_masks", jump_at_order_6)
    with pytest.raises(BudgetExceeded) as info:
        ex_oracle(9, 7, 4, 2, time_budget_s=60.0)
    assert time.monotonic() - clock.jumped < 2.0
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    assert info.value.stats == {
        "stage": "extremal",
        "completed_levels": 6,
        "level_sizes": [len(l) for l in enumerator.chain(7, 4, 6)],
    }
    assert len(expanded) == 1
    assert not any(key[2] >= 7 for key in enumerator.levels)
    resumed = ex_oracle(9, 7, 4, 2)
    monkeypatch.setattr(oracle, "_ENUMERATOR", Enumerator())
    assert ex_oracle(9, 7, 4, 2) == resumed


def test_time_budget_in_the_final_filters(monkeypatch):
    """The deadline is checked per graph in the final filters too.  With
    the (7,4) levels to 10 warm, no level is built, so a budget of 0 runs
    out in the edge_maximal filter, and the stats name that stage."""
    enumerator = Enumerator()
    monkeypatch.setattr(oracle, "_ENUMERATOR", enumerator)
    for n, level in enumerate(_ENUMERATOR.chain(7, 4, 10)):
        enumerator.levels[7, 4, n, 0] = level
    config = EnumerationConfig(
        n=10, forbid_path=7, forbid_clique=4, edge_maximal=True, time_budget_s=0
    )
    with pytest.raises(BudgetExceeded) as info:
        enumerate_graphs(config)
    stats = info.value.stats
    assert stats["stage"] == "filters" and stats["completed_levels"] == 10
    assert stats["level_sizes"] == [len(l) for l in enumerator.chain(7, 4, 10)]
