"""Property suites: randomized invariants runnable standalone.

The bulk min-based-colouring sweep (10^3 seeded trials) and the solver/brute
equivalence are the two headline properties; the rest are hypothesis checks
over random graphs and colourings.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from chordcrit.criticality import min_based_coloring
from chordcrit.families import classify_pair, gn_chords, mycielski, PairClass
from chordcrit.graph import (
    build_graph,
    delete_edge,
    export_graph,
    is_proper_coloring,
)
from chordcrit.solver import SolverConfig, is_k_colorable

from helpers import min_based_conflicts, run_min_based_trials
from oracles import brute_is_k_colorable, brute_proper, read_structured


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return build_graph([f"v{i}" for i in range(n)], sorted(edges))


@st.composite
def chord_pairs(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    chords = gn_chords(n)
    i = draw(st.integers(min_value=0, max_value=len(chords) - 1))
    j = draw(st.integers(min_value=0, max_value=len(chords) - 1))
    return n, chords[i], chords[j]


def test_min_based_coloring_bulk_trials():
    # 10^3 random (n, A) draws with n <= 30: no monochromatic edge may join
    # two min-coloured chords.
    assert run_min_based_trials(trials=1000, seed=0, max_n=30) == 0


@given(st.integers(min_value=4, max_value=30), st.data())
@settings(max_examples=200, deadline=None)
def test_min_based_coloring_proper_hypothesis(n, data):
    A = data.draw(st.frozensets(st.integers(min_value=1, max_value=n)))
    assert min_based_conflicts(n, A) == 0


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_delete_edge_invariants(g):
    for e in list(g.edges())[:5]:
        h = delete_edge(g, e)
        assert h.edge_count == g.edge_count - 1
        assert all(h.has_edge(w, u) for u in range(h.n) for w in h.neighbors(u))
        assert g.has_edge(e.u, e.v)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_structured_round_trip(g):
    assert read_structured(export_graph(g, "structured")) == g


@given(graphs(max_n=8), st.data())
@settings(max_examples=100, deadline=None)
def test_proper_coloring_agrees_with_oracle(g, data):
    colors = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=max(g.n - 1, 0)),
            st.integers(min_value=0, max_value=3),
        )
    ) if g.n else {}
    colors = {v: c for v, c in colors.items() if v < g.n}
    assert is_proper_coloring(g, colors).proper == brute_proper(g, colors)


@given(graphs(max_n=7), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_solver_decision_matches_brute_force(g, k):
    decision = is_k_colorable(g, k, SolverConfig(time_budget=30))
    assert decision.status in ("yes", "no")
    assert (decision.status == "yes") == brute_is_k_colorable(g, k)
    if decision.witness is not None:
        assert is_proper_coloring(g, decision.witness).proper


@given(chord_pairs())
@settings(max_examples=200, deadline=None)
def test_classify_pair_symmetric_and_total(args):
    n, p, q = args
    if p == q:
        return
    cls = classify_pair(p, q, n)
    assert cls is classify_pair(q, p, n)
    assert cls in PairClass
    if set(p) & set(q):
        assert cls is PairClass.INTERSECTING
    else:
        assert cls is not PairClass.INTERSECTING


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_mycielski_size_recurrence(g):
    m = mycielski(g)
    assert m.n == 2 * g.n + 1
    assert m.edge_count == 3 * g.edge_count + g.n


@given(st.integers(min_value=4, max_value=24))
@settings(max_examples=50, deadline=None)
def test_min_based_colors_within_complement(n):
    A = frozenset(range(2, n, 3))
    coloring = min_based_coloring(n, A)
    assert set(coloring.values()) <= set(range(1, n + 1)) - A
