import time

import pytest

from pathclique.canon import canonical
from pathclique.constructions import h_extremal, turan, turan_union
from pathclique.detect import count_cliques, is_2connected, is_connected, is_free
from pathclique.formulas import ParameterError, TheoremParams, turan_cliques
from pathclique.graph6 import graph6_decode, graph6_encode
from pathclique.graphs import make_graph, primitive
from pathclique.oracle import (
    CAP_ENV_VAR,
    BudgetExceeded,
    CapExceeded,
    EnumerationConfig,
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
TRIANGLE_FREE_COUNTS = [1, 2, 3, 7, 14, 38, 107, 410, 1897]
# OEIS A001349: connected graphs on n unlabelled vertices
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]


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
    # from a cold cache the (P_8, K_4) level 8 takes seconds to build, so
    # a deadline checked only between levels would overrun by most of it
    clear_cache()
    budget = 1.0
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        ex_oracle(9, 8, 4, 2, time_budget_s=budget)
    assert time.monotonic() - t0 < budget + 2.0
    stats = info.value.stats
    done = stats["completed_levels"]
    assert len(stats["level_sizes"]) == done + 1
    # the interrupted level was not cached half-built
    config = EnumerationConfig(n=done + 1, forbid_path=8, forbid_clique=4)
    resumed = enumerate_graphs(config)
    clear_cache()
    assert enumerate_graphs(config) == resumed
