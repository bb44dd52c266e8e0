import hashlib
import itertools
import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from chordcrit import solver
from chordcrit.families import gn, kneser, mycielski_iter, schrijver
from chordcrit.graph import build_graph, count_colors, delete_edge, is_proper_coloring
from chordcrit.solver import (
    SolverConfig,
    chromatic_number,
    clique_bound,
    greedy_bound,
    is_k_colorable,
)

from helpers import (
    PINNED,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    sha256,
    small_corpus,
)
from oracles import (
    brute_chromatic,
    brute_is_k_colorable,
    max_key_clique,
    reference_search,
)


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


def test_clique_bound_is_pinned():
    builders = {"gn": gn, "schrijver_k2": lambda n: schrijver(n, 2),
                "mycielski_iter": mycielski_iter}
    for family, digests in PINNED["clique_bound"].items():
        for size, digest in digests.items():
            g = builders[family](int(size))
            assert sha256(repr(clique_bound(g))) == digest, (family, size)


PINNED_BUILDERS = {"gn": gn, "schrijver_k2": lambda n: schrijver(n, 2),
                   "mycielski_iter": mycielski_iter}


def test_greedy_bound_is_pinned():
    for family, digests in PINNED["greedy_bound"].items():
        for size, digest in digests.items():
            g = PINNED_BUILDERS[family](int(size))
            got = sha256(repr(sorted(greedy_bound(g).items())))
            assert got == digest, (family, size)


def test_chromatic_number_is_pinned():
    for family, digests in PINNED["chromatic_number"].items():
        for key, digest in digests.items():
            size, seed = key.split("/")
            g = PINNED_BUILDERS[family](int(size))
            r = chromatic_number(g, SolverConfig(seed=int(seed)))
            got = sha256(repr((r.chi, r.status, r.lower_bound, r.upper_bound,
                               r.lower_bound_witness, sorted(r.witness.items()))))
            assert got == digest, (family, key)


def test_edge_deleted_search_is_pinned():
    # Every G_n - e is (n-3)-colourable, and many of these "yes" searches
    # backtrack, so the pins cover the search's path, not only its verdicts.
    for key, pins in PINNED["edge_deleted_search"].items():
        n, seed = map(int, key.split("/"))
        g = gn(n)
        assert set(pins) == {f"{u},{v}" for u, v in g.edges()}, key
        for e, expected in pins.items():
            u, v = map(int, e.split(","))
            out = is_k_colorable(delete_edge(g, (u, v)), n - 3,
                                 SolverConfig(seed=seed))
            got = f"{out.status} {out.backtracks} {_witness_digest(out.witness)}"
            assert got == expected, (key, e)


def _mask_corpus():
    return ([gn(n) for n in range(4, 31)]
            + [schrijver(n, 2) for n in range(4, 11)]
            + [mycielski_iter(k) for k in range(2, 7)]
            + [edgeless_graph(0), edgeless_graph(5)])


def test_masks_are_adjacency_under_any_numbering():
    rng = random.Random(2011)
    for g in _mask_corpus():
        order = list(range(g.n))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        masks = solver._masks(g, order)
        assert len(masks) == g.n
        for i, v in enumerate(order):
            assert masks[i] == sum(1 << pos[w] for w in g.neighbors(v)), (g.n, v)


def test_clique_grows_on_any_numbering():
    rng = random.Random(2011)
    for g in _mask_corpus():
        order = list(range(g.n))
        rng.shuffle(order)
        assert solver._clique(g, solver._masks(g, order), order) == clique_bound(g)


def test_clique_matches_max_key_rule_on_any_numbering():
    rng = random.Random(2013)
    for g in _mask_corpus():
        for _ in range(3):
            order = list(range(g.n))
            rng.shuffle(order)
            adjm = solver._masks(g, order)
            assert solver._clique(g, adjm, order) == max_key_clique(g, adjm, order)


def test_tie_order_is_the_seeds_permutation():
    for seed in range(21):
        for n in range(61):
            expected = np.random.default_rng(seed).permutation(n).tolist()
            assert solver._tie_order(seed, n) == tuple(expected), (seed, n)
            # Drawn once: the second call returns the cached tuple.
            assert solver._tie_order(seed, n) is solver._tie_order(seed, n)


def test_masks_built_once_per_search(monkeypatch):
    calls = []
    original = solver._masks

    def counting(g, order):
        calls.append(g.n)
        return original(g, order)

    monkeypatch.setattr(solver, "_masks", counting)
    g = gn(8)
    is_k_colorable(g, 5)
    assert calls == [g.n]
    calls.clear()
    chromatic_number(g)
    assert calls == [g.n, g.n]  # the search's masks and greedy_bound's


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
    u, v = g6.labels.index("26"), g6.labels.index("35")
    relaxed = is_k_colorable(delete_edge(g6, (u, v)), 3)
    assert relaxed.status == "yes"
    assert is_proper_coloring(delete_edge(g6, (u, v)), relaxed.witness).proper


def test_is_k_colorable_edge_cases():
    assert is_k_colorable(edgeless_graph(0), 0).status == "yes"
    assert is_k_colorable(edgeless_graph(3), 0).status == "no"
    assert is_k_colorable(edgeless_graph(3), 1).status == "yes"
    with pytest.raises(ValueError):
        is_k_colorable(cycle_graph(3), -1)


def test_counters_do_not_grow_with_k():
    # No colour index reaches n, so a huge k costs no more than k = n.
    g = gn(9)
    tracemalloc.start()
    try:
        out = is_k_colorable(g, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.status == "yes"
    assert peak < 5 * 2**20


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


@pytest.mark.parametrize(
    "interval", [1, 2, 3, 7, 13, 100, 1000, 1684, 1685, 1686, 4999, 5000, 5292])
def test_clock_read_every_check_interval(interval):
    # The proof that G_10 is not 7-colourable takes 1685 backtracks, and the
    # budget has run out by the first clock read.  A jump adds all the depths
    # it pops at once, so most multiples fall inside one.  Past the last
    # backtrack no clock is read, and the proof stands.
    cfg = SolverConfig(time_budget=1e-9, backtrack_check_interval=interval)
    out = is_k_colorable(gn(10), 7, cfg)
    expected = ("timeout", interval) if interval <= 1685 else ("no", 1685)
    assert (out.status, out.backtracks) == expected


def test_timeout_overshoot_is_bounded():
    # G_12 is not 9-colourable, and its proof needs 45k backtracks, far more
    # than 0.01 s of search, so the search must stop at a clock read of the
    # default check interval.
    g = gn(12)
    start = time.monotonic()
    out = is_k_colorable(g, 9, SolverConfig(time_budget=0.01))
    assert out.status == "timeout"
    assert time.monotonic() - start < 1.0


def test_time_budget_covers_setup(monkeypatch):
    # The clique alone outlasts the budget, so the search stops at its first
    # clock read, and chromatic_number before its first search.
    original = solver._clique

    def slow(g, *rest):
        time.sleep(0.2)
        return original(g, *rest)

    monkeypatch.setattr(solver, "_clique", slow)
    cfg = SolverConfig(time_budget=0.1, backtrack_check_interval=1)
    out = is_k_colorable(gn(11), 8, cfg)
    assert (out.status, out.backtracks) == ("timeout", 1)
    assert chromatic_number(gn(8), cfg).status == "timeout_with_bounds"


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


def test_chromatic_number_computes_clique_once(monkeypatch):
    calls = []
    original = solver._clique

    def counting(g, *rest):
        calls.append(g.n)
        return original(g, *rest)

    monkeypatch.setattr(solver, "_clique", counting)
    res = chromatic_number(gn(8))
    assert (res.chi, res.status) == (6, "exact")
    assert calls == [gn(8).n]


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
    # The search tests its backtrack count for equality with multiples of
    # the interval, so a fraction would never be hit and the budget ignored.
    with pytest.raises(ValueError):
        SolverConfig(backtrack_check_interval=1.5)


# (family, n, k, seed) -> (status, backtracks, sha256 of the sorted witness),
# recorded from the numpy search kernel that the list-based one replaced; the
# backtrack counts were re-recorded when the search began to jump back by
# conflict sets.  Any change to the vertex pick, the colour order, the clique
# pre-assignment, the conflict sets or the backtrack accounting shows up here.
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
    ("gn", 7, 4, 1): ("no", 34, None),
    ("gn", 7, 5, 0): ("yes", 0, "62540a7c5c3ae5b33a3c9a6a636098e7795e825da63fcc7931b0623a4ac879e5"),
    ("gn", 7, 5, 1): ("yes", 0, "fdbbc8b9d089092596a84db23a23cd289a24fdce94bb58043e91ac1e199d6ff4"),
    ("gn", 8, 5, 0): ("no", 102, None),
    ("gn", 8, 5, 1): ("no", 102, None),
    ("gn", 8, 6, 0): ("yes", 0, "2dcb7e8b045a4c538bae89117100f619930a5922f4a5943a08ee15bc25f5523e"),
    ("gn", 8, 6, 1): ("yes", 0, "970cbe7df465288ef0fb269310aa729979df404a4640a2fc288ffd17cda32a5b"),
    ("gn", 9, 6, 0): ("no", 496, None),
    ("gn", 9, 6, 1): ("no", 539, None),
    ("gn", 9, 7, 0): ("yes", 0, "b10ea5f8fd02e12f4d4193e1b43f25d0b2a061acc5a634fa815523042cf88411"),
    ("gn", 9, 7, 1): ("yes", 0, "a86189e02b39c56ce6e45e6f6cc7d87c77c4ee0c3f6d72a2f593d90142d3944e"),
    ("gn", 10, 7, 0): ("no", 1685, None),
    ("gn", 10, 7, 1): ("no", 1748, None),
    ("gn", 10, 8, 0): ("yes", 0, "01ac4deb8aece260662e7410b4d95618ebcd150d86d2b4dfdcbda3dd67b60e11"),
    ("gn", 10, 8, 1): ("yes", 0, "01ac4deb8aece260662e7410b4d95618ebcd150d86d2b4dfdcbda3dd67b60e11"),
    # The longest proofs here, with the longest jumps.
    ("gn", 11, 8, 0): ("no", 13438, None),
    ("gn", 12, 9, 0): ("no", 45177, None),
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


def _reference_cases():
    # Each G_n - e under one of the seeds 0..2 in turn; the rest under all.
    cases = [(delete_edge(gn(n), e), i % 3)
             for n in range(4, 10) for i, e in enumerate(gn(n).edges())]
    others = ([schrijver(n, 2) for n in range(4, 9)]
              + [mycielski_iter(j) for j in range(2, 6)]
              + [edgeless_graph(0), edgeless_graph(5)])
    return cases + [(g, seed) for g in others for seed in range(3)]


def _both_searches(adjm, order, k, clique, deadline=math.inf, interval=1_024):
    args = (adjm, order, k, clique, deadline, interval)
    return [(out.status, out.backtracks, out.witness)
            for out in (solver._search(*args), reference_search(*args))]


def _assert_jumps_within_reference(adjm, order, k, clique):
    """The backjumping search visits part of the reference loop's tree in
    its order: the same status and witness, and no more backtracks.
    Returns the backtracks it saved."""
    (status, count, witness), old = _both_searches(adjm, order, k, clique)
    assert (status, witness) == (old[0], old[2]), (k, len(clique))
    assert count <= old[1], (k, len(clique))
    return old[1] - count


def test_search_matches_reference_loop():
    # With the clique prefix and without it.
    for g, seed in _reference_cases():
        order = solver._order(g, seed)
        adjm = solver._masks(g, order)
        clique = solver._clique(g, adjm, order)
        for k in range(9):
            for prefix in (clique, []):
                _assert_jumps_within_reference(adjm, order, k, prefix)
        # The greedy form: ties by id, 1 + max degree colours, no clique.
        order = sorted(range(g.n), key=g.degree, reverse=True)
        k = 1 + max(map(g.degree, range(g.n)), default=0)
        new, old = _both_searches(solver._masks(g, order), order, k, [])
        assert new == old and new[1] == 0, (g.n, g.edge_count, "greedy")


def _gnp(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph([f"r{i}" for i in range(n)], edges)


def test_search_matches_reference_loop_on_random_graphs():
    # A conflict set that blames too few depths jumps over a colouring and
    # shows here as a wrong "no" or another witness.  Six G(n, p) per n and p
    # for n = 6..14, at every k up to 8; so small, they are decided with
    # few dead ends and no search among them jumps.  Two G(n, p) per n and
    # p for n = 20..39 at the k just above their clique, where 135 do.
    saved = 0
    for sizes, draws, ks in ((range(6, 15), 6, lambda q: range(9)),
                             (range(20, 40), 2, lambda q: range(q, q + 4))):
        for n, p in itertools.product(sizes, (0.3, 0.5, 0.7)):
            rng = random.Random(f"{n}:{p}")
            for _ in range(draws):
                g = _gnp(n, p, rng)
                for seed in (0, 1):
                    order = solver._order(g, seed)
                    adjm = solver._masks(g, order)
                    clique = solver._clique(g, adjm, order)
                    for k in ks(len(clique)):
                        for prefix in (clique, []):
                            saved += _assert_jumps_within_reference(
                                adjm, order, k, prefix)
    assert saved > 0


def test_search_timeouts_match_reference_loop():
    # A deadline already past times out at the first multiple of the
    # interval the count reaches, as the reference loop does; past the last
    # backtrack (496; the reference loop takes 869) it is "no".
    g = gn(9)
    order = solver._order(g, 0)
    adjm = solver._masks(g, order)
    clique = solver._clique(g, adjm, order)
    for interval in [*range(1, 80), 495, 496, 497]:
        new, old = _both_searches(adjm, order, 6, clique, 0.0, interval)
        if interval <= 496:
            assert new == old == ("timeout", interval, None), interval
        else:
            assert new == ("no", 496, None), interval


@pytest.mark.parametrize("n,backtracks", [(9, 496), (10, 1685)])
def test_chromatic_number_reports_backtracks(n, backtracks):
    # The greedy bound is n - 2, so the only search is the "no" at n - 3.
    res = chromatic_number(gn(n))
    assert (res.chi, res.status, res.backtracks) == (n - 2, "exact", backtracks)


def test_chromatic_number_counts_a_timed_out_search(monkeypatch):
    # A clock that moves one second per read: the call starts at 0 with a
    # 2.5 s budget, the k = 7 search of G_10 starts at 1, and its clock
    # reads at 500 and 1000 backtracks see 2 and 3.
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    cfg = SolverConfig(time_budget=2.5, backtrack_check_interval=500)
    res = chromatic_number(gn(10), cfg)
    assert (res.status, res.backtracks) == ("timeout_with_bounds", 1000)
