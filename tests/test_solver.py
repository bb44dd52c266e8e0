import hashlib
import time

import pytest

from chordcrit.families import gn, kneser, mycielski_iter, schrijver
from chordcrit.graph import count_colors, delete_edge, is_proper_coloring
from chordcrit.solver import (
    SolverConfig,
    chromatic_number,
    clique_bound,
    greedy_bound,
    is_k_colorable,
    render_witness,
)

from helpers import complete_graph, cycle_graph, edgeless_graph, small_corpus
from oracles import brute_chromatic, brute_is_k_colorable


def test_greedy_bound_is_proper():
    for g in (gn(6), cycle_graph(7), kneser(5, 2)):
        c = greedy_bound(g)
        assert is_proper_coloring(g, c).proper


def test_greedy_bound_edge_cases():
    assert count_colors(greedy_bound(edgeless_graph(4))) == 1
    assert count_colors(greedy_bound(complete_graph(4))) == 4
    assert count_colors(greedy_bound(gn(6))) <= 6


def test_clique_bound_examples():
    assert len(clique_bound(cycle_graph(5))) <= 2
    assert clique_bound(complete_graph(5)) == [0, 1, 2, 3, 4]
    # a triangle exists in G_7: the chords 14, 25, 36 pairwise cross
    from chordcrit.families import PairClass, classify_pair
    from itertools import combinations
    for p, q in combinations([(1, 4), (2, 5), (3, 6)], 2):
        assert classify_pair(p, q, 7) is PairClass.CROSSING
    assert len(clique_bound(gn(7))) >= 3


def test_clique_bound_returns_actual_clique():
    for g in (gn(7), gn(9), kneser(5, 2)):
        clique = clique_bound(g)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)


def test_is_k_colorable_odd_cycle():
    c5 = cycle_graph(5)
    assert is_k_colorable(c5, 2).status == "no"
    yes = is_k_colorable(c5, 3)
    assert yes.status == "yes"
    assert is_proper_coloring(c5, yes.witness).proper
    assert count_colors(yes.witness) <= 3


def test_is_k_colorable_g6_and_deleted_edge():
    g6 = gn(6)
    assert is_k_colorable(g6, 3).status == "no"
    u, v = g6.label_index["26"], g6.label_index["35"]
    relaxed = is_k_colorable(delete_edge(g6, (u, v)), 3)
    assert relaxed.status == "yes"
    assert is_proper_coloring(delete_edge(g6, (u, v)), relaxed.witness).proper


def test_is_k_colorable_edge_cases():
    assert is_k_colorable(edgeless_graph(0), 0).status == "yes"
    assert is_k_colorable(edgeless_graph(3), 0).status == "no"
    assert is_k_colorable(edgeless_graph(3), 1).status == "yes"
    with pytest.raises(ValueError):
        is_k_colorable(cycle_graph(3), -1)


@pytest.mark.parametrize("name,g", small_corpus())
def test_decision_matches_brute_force(name, g):
    for k in range(0, 5):
        got = is_k_colorable(g, k)
        assert got.status in ("yes", "no")
        expected = brute_is_k_colorable(g, k)
        assert (got.status == "yes") == expected, f"{name} at k={k}"
        if got.status == "yes":
            assert is_proper_coloring(g, got.witness).proper
            assert count_colors(got.witness) <= k


def test_monotonicity_in_k():
    g = gn(7)
    answers = [is_k_colorable(g, k).status for k in range(1, 8)]
    first_yes = answers.index("yes")
    assert all(a == "no" for a in answers[:first_yes])
    assert all(a == "yes" for a in answers[first_yes:])


def test_determinism_fixed_seed():
    cfg = SolverConfig(seed=7)
    a = is_k_colorable(gn(7), 5, cfg)
    b = is_k_colorable(gn(7), 5, cfg)
    assert a.witness == b.witness
    assert a.backtracks == b.backtracks


def test_timeout_is_distinct_from_no():
    cfg = SolverConfig(time_budget=1e-9, backtrack_check_interval=1)
    out = is_k_colorable(gn(8), 5, cfg)
    assert out.status == "timeout"


def test_timeout_overshoot_is_bounded():
    # G_12 is not 9-colourable, and its proof needs far more than the 200k
    # backtracks of the default check interval.
    g = gn(12)
    start = time.monotonic()
    out = is_k_colorable(g, 9, SolverConfig(time_budget=0.01))
    assert out.status == "timeout"
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n", range(4, 8))
def test_chromatic_number_of_gn(n):
    res = chromatic_number(gn(n))
    assert res.status == "exact"
    assert res.chi == n - 2
    assert is_proper_coloring(gn(n), res.witness).proper
    assert count_colors(res.witness) == res.chi


@pytest.mark.parametrize("k", range(2, 5))
def test_chromatic_number_of_mycielski_iterates(k):
    assert chromatic_number(mycielski_iter(k)).chi == k


def test_chromatic_number_of_petersen():
    assert chromatic_number(kneser(5, 2)).chi == 3


@pytest.mark.parametrize("name,g", small_corpus())
def test_chromatic_number_matches_enumeration(name, g):
    res = chromatic_number(g)
    assert res.status == "exact"
    assert res.chi == brute_chromatic(g), name


def test_chromatic_lower_bound_witness_is_clique():
    res = chromatic_number(gn(7))
    clique = res.lower_bound_witness
    assert len(clique) <= res.chi
    g = gn(7)
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            assert g.has_edge(u, v)


def test_subgraph_consistency_under_edge_deletion():
    g = gn(6)
    chi = chromatic_number(g).chi
    for e in g.edges():
        sub_chi = chromatic_number(delete_edge(g, e)).chi
        assert sub_chi <= chi <= sub_chi + 1


def test_chromatic_timeout_reports_bounds():
    cfg = SolverConfig(time_budget=1e-9, backtrack_check_interval=1)
    res = chromatic_number(gn(8), cfg)
    assert res.status == "timeout_with_bounds"
    assert res.lower_bound <= res.chi <= res.upper_bound
    assert is_proper_coloring(gn(8), res.witness).proper


def test_empty_graph_chromatic():
    res = chromatic_number(edgeless_graph(0))
    assert res.chi == 0
    assert res.status == "exact"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_budget=0)
    with pytest.raises(ValueError):
        SolverConfig(time_budget=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(backtrack_check_interval=0)


def test_render_witness():
    g = gn(4)
    text = render_witness(g, {0: 0, 1: 1})
    assert text == "13 0\n24 1\n"


# (family, n, k, seed) -> (status, backtracks, sha256 of the sorted witness),
# recorded from the numpy search kernel that the list-based one replaced.
# Any change to the vertex pick, the colour order, the clique pre-assignment
# or the backtrack accounting shows up here.
PINNED_TRACES = {
    ("gn", 5, 2, 0): ("no", 3, None),
    ("gn", 5, 2, 1): ("no", 3, None),
    ("gn", 5, 3, 0): ("yes", 0, "4b69d67ca2342cc4307cb476f507f685fc14aedc6d2b8dc6bb4290566b9d5643"),
    ("gn", 5, 3, 1): ("yes", 0, "468aa83f199569b3d7ff53d6e77d4da790355184d0c702107038674c70b9e8b3"),
    ("gn", 6, 3, 0): ("no", 7, None),
    ("gn", 6, 3, 1): ("no", 7, None),
    ("gn", 6, 4, 0): ("yes", 0, "9a5761c3645d723b4bc35876a3797fcf2d153149c3baa7089ce63c8afddbf023"),
    ("gn", 6, 4, 1): ("yes", 0, "0f2c312d70aec179131119474b9ce71ed21b2cdcd7d3752a246b75cd72fc4756"),
    ("gn", 7, 4, 0): ("no", 27, None),
    ("gn", 7, 4, 1): ("no", 39, None),
    ("gn", 7, 5, 0): ("yes", 0, "62540a7c5c3ae5b33a3c9a6a636098e7795e825da63fcc7931b0623a4ac879e5"),
    ("gn", 7, 5, 1): ("yes", 0, "fdbbc8b9d089092596a84db23a23cd289a24fdce94bb58043e91ac1e199d6ff4"),
    ("gn", 8, 5, 0): ("no", 134, None),
    ("gn", 8, 5, 1): ("no", 134, None),
    ("gn", 8, 6, 0): ("yes", 0, "2dcb7e8b045a4c538bae89117100f619930a5922f4a5943a08ee15bc25f5523e"),
    ("gn", 8, 6, 1): ("yes", 0, "970cbe7df465288ef0fb269310aa729979df404a4640a2fc288ffd17cda32a5b"),
    ("gn", 9, 6, 0): ("no", 869, None),
    ("gn", 9, 6, 1): ("no", 934, None),
    ("gn", 9, 7, 0): ("yes", 0, "b10ea5f8fd02e12f4d4193e1b43f25d0b2a061acc5a634fa815523042cf88411"),
    ("gn", 9, 7, 1): ("yes", 0, "a86189e02b39c56ce6e45e6f6cc7d87c77c4ee0c3f6d72a2f593d90142d3944e"),
    ("gn", 10, 7, 0): ("no", 5291, None),
    ("gn", 10, 7, 1): ("no", 5296, None),
    ("gn", 10, 8, 0): ("yes", 0, "01ac4deb8aece260662e7410b4d95618ebcd150d86d2b4dfdcbda3dd67b60e11"),
    ("gn", 10, 8, 1): ("yes", 0, "01ac4deb8aece260662e7410b4d95618ebcd150d86d2b4dfdcbda3dd67b60e11"),
    ("sg", 6, 3, 0): ("no", 9, None),
    ("sg", 6, 3, 1): ("no", 7, None),
    ("sg", 6, 4, 0): ("yes", 0, "af1c1ba8befea56cadcec8775e8a010e20da63fb047e91c527656a080baf224e"),
    ("sg", 6, 4, 1): ("yes", 0, "4b7bce57a71bcab7d33ad32349b0d86bd97bbcf942bed7577d68ec54dcd8f180"),
    ("sg", 7, 4, 0): ("no", 40, None),
    ("sg", 7, 4, 1): ("no", 38, None),
    ("sg", 7, 5, 0): ("yes", 0, "c79537e96c98e934cafb5180557c02a9a059a84660ceb03810d8ee85a3142cd1"),
    ("sg", 7, 5, 1): ("yes", 0, "f7ed15812fc24b681e611cffa6df5d47a77e2205ef63fa2fc253b22074b96758"),
}


def _witness_digest(witness):
    if witness is None:
        return None
    return hashlib.sha256(repr(sorted(witness.items())).encode()).hexdigest()


def test_search_trace_is_pinned():
    graphs = {}
    for (family, n, k, seed), expected in PINNED_TRACES.items():
        if (family, n) not in graphs:
            graphs[family, n] = gn(n) if family == "gn" else schrijver(n, 2)
        out = is_k_colorable(graphs[family, n], k, SolverConfig(seed=seed))
        got = (out.status, out.backtracks, _witness_digest(out.witness))
        assert got == expected, (family, n, k, seed)
