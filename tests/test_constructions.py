import pytest

from pathclique.canon import canonical
from pathclique.constructions import (
    double_star,
    g1,
    g2,
    g3,
    g4,
    g5,
    h_extremal,
    h_minus,
    turan,
    turan_union,
)
from pathclique.detect import blocks, count_cliques, is_free, longest_path_order
from pathclique.formulas import ParameterError, delta_k, part_sizes
from pathclique.graph6 import graph6_encode
from pathclique.graphs import Graph, disjoint_union, join, primitive


def test_turan_shapes():
    assert turan(4, 2).edge_count() == 4
    assert turan(7, 3).edge_count() == 16
    assert turan(3, 5) == primitive("complete", 3)
    assert turan(0, 1).n == 0
    t = turan(7, 3)
    # largest parts first, consecutive labels: parts {0,1,2},{3,4},{5,6}
    assert not t.has_edge(0, 1) and not t.has_edge(3, 4) and t.has_edge(2, 3)


def test_turan_part_product():
    for n in range(1, 13):
        for p in range(1, 7):
            sizes = part_sizes(n, p)
            prod = 1
            for s in sizes:
                prod *= s
            assert count_cliques(turan(n, p), len(sizes)) == prod
            assert count_cliques(turan(n, p), p + 1) == 0


def test_h_extremal_cases():
    # m <= delta_k + 2
    g = h_extremal(10, 4, 8)
    assert g.edge_count() == 3 * 10 - 7
    # even k, m > delta_k + 2
    g = h_extremal(10, 5, 8)
    assert g == join(primitive("complete", 3), primitive("empty", 7))
    # odd k, m > delta_k + 2
    g = h_extremal(10, 6, 9)
    assert g.edge_count() == 3 * 10 - 5
    # star degenerate case
    assert h_extremal(8, 3, 5) == primitive("star", 8)
    with pytest.raises(ParameterError):
        h_extremal(10, 8, 8)  # m >= k
    with pytest.raises(ParameterError):
        h_extremal(3, 4, 8)  # n < delta_k + 2


def test_h_extremal_freeness():
    for k in range(4, 11):
        for m in range(3, k):
            for n in range(delta_k(k) + 2, 21):
                assert is_free(h_extremal(n, m, k), k, m), (n, m, k)


def test_h_minus():
    for n in (6, 8, 11):
        hm = h_minus(n, 3, 5)
        assert canonical(hm) == canonical(double_star(n - 2, 2))
    # same edge count as the case-1 graph for (m,k)=(4,7) at n=12
    assert h_minus(12, 4, 7).edge_count() == h_extremal(12, 4, 7).edge_count()
    for n in range(7, 16):
        assert is_free(h_minus(n, 4, 7), 7, 4)
        assert is_free(h_minus(n, 5, 9), 9, 5)
    with pytest.raises(ParameterError):
        h_minus(12, 3, 9)  # delta_9 = 3 > 2m-5 = 1
    with pytest.raises(ParameterError):
        h_minus(12, 4, 8)  # even k


def test_h_minus_edge_choice_isomorphic():
    # deleting the edge to any singleton-part vertex gives the same class
    for (m, k) in [(3, 5), (4, 7), (5, 9), (6, 11)]:
        dk = delta_k(k)
        if not m - 2 <= dk <= 2 * m - 5:
            continue
        n = dk + 6
        base = join(
            turan(dk, m - 2),
            disjoint_union(primitive("empty", n - dk - 2), primitive("complete", 2)),
        )
        sizes = part_sizes(dk, m - 2)
        starts = []
        off = 0
        for s in sizes:
            if s == 1:
                starts.append(off)
            off += s
        codes = set()
        for v in starts:
            rows = list(base.rows)
            rows[n - 2] &= ~(1 << v)
            rows[v] &= ~(1 << (n - 2))
            codes.add(canonical(Graph(n, tuple(rows))))
        assert codes == {canonical(h_minus(n, m, k))}


def test_double_star():
    assert canonical(double_star(1, 5)) == canonical(primitive("star", 6))
    ds = double_star(3, 3)
    assert ds.n == 6 and ds.edge_count() == 5
    assert longest_path_order(ds) == 4
    assert canonical(double_star(2, 2)) == canonical(primitive("path", 4))
    with pytest.raises(ParameterError):
        double_star(0, 3)


def test_g1():
    g = g1(7, 6)
    assert g.n == 7 and g.edge_count() == 9
    dec = blocks(g)
    assert len(dec.blocks) == 3 and dec.cut_vertices == {0}
    # all end blocks share the one cut vertex
    assert all(0 in dec.blocks[i] for i in dec.end_blocks)
    with pytest.raises(ParameterError):
        g1(8, 6)  # (8-1) % 2 != 0


def test_g2():
    assert canonical(g2(4, 4, 5)) == canonical(double_star(4, 4))
    g = g2(5, 7, 7)
    assert g.n == 12 and is_free(g, 7, 4)
    with pytest.raises(ParameterError):
        g2(5, 7, 6)  # even k


def test_g3():
    c4 = primitive("cycle", 4)
    g = g3(8, 7, c4, 0)
    assert g.n == 8 and g.min_degree() == 2
    assert is_free(g, 7, 4)
    dec = blocks(g)
    assert dec.cut_vertices == {0}
    with pytest.raises(ParameterError):
        g3(8, 6, c4, 0)  # even k
    with pytest.raises(ParameterError):
        g3(9, 7, c4, 0)  # order mismatch
    with pytest.raises(ParameterError):
        g3(8, 7, primitive("cycle", 5), 0)  # wrong block order


def test_g4_g5():
    for n1 in (3, 5, 7):
        for n2 in (4, 6, 9):
            if n1 + n2 - 1 > 16:
                continue
            for g in (g4(n1, n2), g5(n1, n2)):
                assert g.n == n1 + n2 - 1
                assert is_free(g, 7, 4)
    # center of the fan is joined to every leaf of the star
    g = g4(5, 5)
    star_center = 5
    assert not g.has_edge(0, star_center)
    assert g5(5, 5).has_edge(0, star_center)
    with pytest.raises(ParameterError):
        g4(5, 3)  # n2 < 4


def test_turan_union():
    tu = turan_union(8, 5, 3)
    assert tu.edge_count() == 8
    assert canonical(tu) == canonical(
        disjoint_union(primitive("cycle", 4), primitive("cycle", 4))
    )
    assert turan_union(12, 7, 4).edge_count() == 24
    assert is_free(turan_union(8, 5, 3), 5, 3)
    with pytest.raises(ParameterError):
        turan_union(9, 5, 3)


def test_builders_deterministic():
    builders = [
        lambda: turan(9, 3),
        lambda: h_extremal(11, 4, 8),
        lambda: h_minus(10, 4, 7),
        lambda: double_star(4, 6),
        lambda: g1(9, 6),
        lambda: g2(5, 5, 7),
        lambda: g3(8, 7, primitive("cycle", 4), 1),
        lambda: g4(5, 6),
        lambda: g5(3, 7),
        lambda: turan_union(12, 7, 4),
    ]
    for build in builders:
        assert graph6_encode(build()) == graph6_encode(build())
