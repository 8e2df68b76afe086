from fractions import Fraction
from math import comb

import pytest

from pathclique.constructions import g1, g4, g5, h_extremal, turan
from pathclique.detect import count_cliques
from pathclique.formulas import (
    ParameterError,
    TheoremParams,
    delta_k,
    h_value,
    katona_value,
    luo_value,
    part_sizes,
    predicted_ex,
    predicted_ex_con,
    threshold_case,
    turan_cliques,
    turan_edges,
)
from pathclique.graphs import copies, disjoint_union, join, primitive


def test_delta_k():
    assert delta_k(9) == 3
    assert delta_k(4) == 1
    assert delta_k(6) == 2
    with pytest.raises(ParameterError):
        delta_k(1)


def test_part_sizes():
    assert part_sizes(7, 3) == [3, 2, 2]
    assert part_sizes(3, 5) == [1, 1, 1]
    assert part_sizes(0, 2) == []
    for n in range(0, 20):
        for p in range(1, 8):
            sizes = part_sizes(n, p)
            assert sum(sizes) == n
            assert sizes == sorted(sizes, reverse=True)
            if sizes:
                assert max(sizes) - min(sizes) <= 1
            assert len(sizes) == min(p, n)


def test_turan_edges():
    assert turan_edges(8, 4) == 24
    assert turan_edges(7, 3) == 16
    assert turan_edges(3, 5) == 3


def test_turan_cliques():
    assert turan_cliques(6, 3, 3) == 8
    assert turan_cliques(8, 4, 2) == turan_edges(8, 4)
    assert turan_cliques(5, 2, 3) == 0
    for n in range(0, 13):
        for p in range(1, 7):
            t = turan(n, p)
            for r in range(0, 7):
                assert turan_cliques(n, p, r) == count_cliques(t, r)


def test_counts_at_64_vertices_match_the_closed_forms():
    """Clique counts on graphs up to 64 vertices, where one recursive step
    per clique would never end (C(64, 32) cliques in K_64), against closed
    forms: turan_cliques on T(n, p), C(64, r) on K_64 and h_value on
    H_64(m, k)."""
    for n in (32, 48, 64):
        for p in range(1, 9):
            t = turan(n, p)
            for r in range(0, p + 2):
                assert count_cliques(t, r) == turan_cliques(n, p, r)
    k64 = primitive("complete", 64)
    for r in range(0, 33):
        assert count_cliques(k64, r) == comb(64, r)
    for k in range(4, 11):
        for m in range(3, k):
            g = h_extremal(64, m, k)
            for r in range(0, m + 1):
                assert count_cliques(g, r) == h_value(64, m, k, r)


def test_theorem_params_validation():
    TheoremParams(8, 4, 2)
    with pytest.raises(ParameterError):
        TheoremParams(8, 8, 2)  # k <= m
    with pytest.raises(ParameterError):
        TheoremParams(8, 4, 4)  # r > m - 1
    with pytest.raises(ParameterError):
        TheoremParams(4, 3, 3)  # r > delta_k + 1
    with pytest.raises(ParameterError):
        TheoremParams(3, 3, 2)


def test_h_value_closed_forms():
    for n in range(10, 15):
        assert h_value(n, 4, 8, 2) == 3 * n - 7
    assert h_value(12, 6, 9, 2) == 3 * 12 - 5


def test_h_value_matches_direct_count():
    for k in range(4, 11):
        for m in range(3, k):
            for n in range(delta_k(k) + 2, 21):
                g = h_extremal(n, m, k)
                for r in range(0, m):
                    assert h_value(n, m, k, r) == count_cliques(g, r)


def test_threshold_case_examples():
    c = threshold_case(8, 4, 2)
    assert c.tag == "Case1" and c.lhs == 3 and c.rhs == Fraction(16, 7)
    c = threshold_case(9, 5, 2)
    assert c.tag == "Case2" and c.lhs == 3 and c.rhs == 3  # boundary equality
    assert threshold_case(6, 4, 2).tag == "Case1"


def test_parity_rules_r2():
    # even k gives Case1 and odd k in m+1..2m-1 gives Case2, both at r = 2
    for k in range(4, 13, 2):
        for m in range(3, k):
            assert threshold_case(k, m, 2).tag == "Case1", (k, m)
    for m in range(3, 12):
        for k in range(m + 1, 2 * m):
            if k % 2 == 1:
                assert threshold_case(k, m, 2).tag == "Case2", (k, m)


def test_even_k_case1_fails_for_larger_r():
    # the parity rule is an r = 2 statement: at r > 2 even k can fall to
    # Case2, e.g. (8,5,4) where 1 < 8/7 and (6,5,3) where 1 < 7/5
    c = threshold_case(8, 5, 4)
    assert c.tag == "Case2" and c.lhs == 1 and c.rhs == Fraction(8, 7)
    c = threshold_case(6, 5, 3)
    assert c.tag == "Case2" and c.lhs == 1 and c.rhs == Fraction(7, 5)


def test_predicted_values():
    assert predicted_ex(8, 5, 3, 2) == (8, True)
    assert predicted_ex(10, 5, 3, 2) == (10, False)
    for n in range(4, 12):
        assert predicted_ex_con(n, 4, 3, 2) == n - 1


def test_katona_value():
    for n in range(10, 16):
        assert katona_value(n, 8, 4) == 3 * n - 7
        assert katona_value(n, 8, 4) == h_value(n, 4, 8, 2)
    with pytest.raises(ParameterError):
        katona_value(10, 4, 5)


def test_luo_value_direct():
    # both candidates counted explicitly via the constructions
    for k in range(4, 9):
        for n in range(k, 16):
            hub = join(
                primitive("complete", 1),
                disjoint_union(
                    primitive("complete", k - 3), primitive("empty", n - k + 2)
                ),
            )
            if k % 2 == 0:
                inner = primitive("empty", n - delta_k(k))
            else:
                inner = disjoint_union(
                    primitive("empty", n - delta_k(k) - 2), primitive("complete", 2)
                )
            hkk = join(primitive("complete", delta_k(k)), inner)
            for r in range(2, 5):
                want = max(count_cliques(hub, r), count_cliques(hkk, r))
                assert luo_value(n, k, r) == want, (n, k, r)


def test_monotone_average():
    for m in range(3, 9):
        for r in range(2, m):
            for ell in range(1, 31):
                lhs = Fraction(turan_cliques(ell, m - 1, r), ell)
                rhs = Fraction(turan_cliques(ell + 1, m - 1, r), ell + 1)
                assert lhs <= rhs


def test_vertex_clique_pair_identity():
    # delta * N_{r-1}(T(delta,m-2)) counts (vertex, K_{r-1}) pairs, which
    # is at least N_r + N_{r-2}; strict unless T is complete and r is
    # delta + 1 (then every pair either extends or shrinks uniquely)
    for k in range(6, 15):
        dk = delta_k(k)
        if not 2 <= dk <= 6:
            continue
        for m in range(3, k):
            for r in range(2, min(m - 1, dk + 1) + 1):
                lhs = dk * turan_cliques(dk, m - 2, r - 1)
                rhs = turan_cliques(dk, m - 2, r) + turan_cliques(dk, m - 2, r - 2)
                assert lhs >= rhs, (k, m, r)
                equality_family = m >= dk + 2 and r == dk + 1
                assert (lhs == rhs) == equality_family, (k, m, r)


def test_g1_below_h_value():
    for k in range(4, 9):
        dk = delta_k(k)
        for m in range(dk + 2, k):
            for t in range(1, 6):
                n = 1 + t * dk
                if n < dk + 2 or n > 20:
                    continue
                g = g1(n, k)
                for r in range(2, m):
                    assert count_cliques(g, r) <= h_value(n, m, k, r)


def test_g4_g5_and_class4_below_alternatives():
    for n1 in (3, 5, 7):
        for n2 in (4, 6, 8):
            n = n1 + n2 - 1
            if n <= 4 or n > 20:
                continue
            alt = join(primitive("complete", 2), primitive("empty", n - 2))
            for r in (2, 3):
                assert count_cliques(g4(n1, n2), r) < count_cliques(alt, r)
                assert count_cliques(g5(n1, n2), r) < count_cliques(alt, r)
    for t in range(2, 10):
        n = 2 * t + 2
        if n <= 4 or n > 20:
            continue
        matching = copies(t, primitive("complete", 2))
        alt = join(primitive("complete", 3), primitive("empty", n - 3))
        for base in (primitive("empty", 2), primitive("complete", 2)):
            g = join(base, matching)
            for r in (2, 3):
                assert count_cliques(g, r) < count_cliques(alt, r)
