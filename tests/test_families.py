import numpy as np
import pytest

from chordcrit.criticality import verify_edge_criticality
from chordcrit.families import (
    InvalidParametersError,
    PairClass,
    chord_base,
    chord_label,
    classify_pair,
    complete_pair,
    edge_pattern,
    gn,
    gn_chords,
    is_stable_pair,
    kneser,
    mycielski,
    mycielski_iter,
    parse_chord,
    schrijver,
    stable_subsets,
)
from chordcrit.graph import (
    EXPORT_FORMATS,
    build_graph,
    delete_vertex,
    export_graph,
    unpack,
)
from chordcrit.homomorphism import build_h, lower_bound_chain
from chordcrit.pairs import chord_table, count_pairs

from helpers import PINNED, edgeless_graph, sha256

from oracles import (
    brute_chords,
    brute_gn_edges,
    brute_pair_class,
    brute_sg2_edges,
    brute_stable_ksubsets,
    is_cycle,
    edge_list_mycielski,
    set_mycielski,
    is_single_edge,
    is_triangle_free,
    nonadjacent_pairs,
)


def _mycielski_inputs():
    """The graphs whose expansions the ``mycielski`` digests pin, by key."""
    for n in range(4, 16):
        yield f"gn/{n}", gn(n)
    for k in range(2, 7):
        yield f"mycielski_iter/{k}", mycielski_iter(k)
    yield "empty", build_graph((), [])
    yield "edgeless", build_graph(("a", "b", "c"), [])


def test_stable_subsets_examples():
    assert stable_subsets(4, 2) == [(1, 3), (2, 4)]
    assert len(stable_subsets(5, 2)) == 5
    assert len(stable_subsets(6, 2)) == 9


@pytest.mark.parametrize("n", range(4, 31))
def test_stable_pairs_count_formula(n):
    subsets = stable_subsets(n, 2)
    assert len(subsets) == n * (n - 3) // 2
    assert subsets == brute_stable_ksubsets(n, 2)


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(2, 15) for k in range(1, n // 2 + 1)]
)
def test_stable_subsets_match_oracle_general_k(n, k):
    assert stable_subsets(n, k) == brute_stable_ksubsets(n, k)


def test_stable_subsets_lex_order():
    subsets = stable_subsets(9, 3)
    assert subsets == sorted(subsets)


def test_stable_subsets_invalid():
    with pytest.raises(InvalidParametersError):
        stable_subsets(3, 2)
    with pytest.raises(InvalidParametersError):
        stable_subsets(5, 0)


def test_classify_pair_named_patterns():
    assert classify_pair((1, 3), (2, 4), 6) is PairClass.CROSSING
    assert classify_pair((2, 6), (3, 5), 6) is PairClass.TRANSVERSE
    assert classify_pair((1, 5), (2, 4), 6) is PairClass.NESTED_THROUGH_1
    assert classify_pair((1, 3), (4, 6), 6) is PairClass.LATERAL
    assert classify_pair((1, 3), (3, 5), 6) is PairClass.INTERSECTING


@pytest.mark.parametrize("n", [6, 7, 9])
def test_classify_pair_total_symmetric_and_matches_oracle(n):
    chords = brute_chords(n)
    for i, p in enumerate(chords):
        for q in chords[i + 1:]:
            got = classify_pair(p, q, n)
            assert got is classify_pair(q, p, n)
            assert got.value == brute_pair_class(p, q)


def test_classify_pair_rejects_bad_chords():
    with pytest.raises(InvalidParametersError):
        classify_pair((1, 2), (3, 5), 6)  # consecutive elements
    with pytest.raises(InvalidParametersError):
        classify_pair((1, 6), (2, 4), 6)  # wrap-around pair
    with pytest.raises(InvalidParametersError):
        classify_pair((1, 3), (1, 3), 6)


def test_kneser_petersen():
    pg = kneser(5, 2)
    assert pg.n == 10
    assert pg.edge_count == 15
    assert all(pg.degree(v) == 3 for v in range(10))


@pytest.mark.parametrize("k", [2, 3])
def test_kneser_2k_is_perfect_matching(k):
    g = kneser(2 * k, k)
    assert all(g.degree(v) == 1 for v in range(g.n))


def test_kneser_invalid():
    with pytest.raises(InvalidParametersError):
        kneser(3, 2)


def test_schrijver_small_cases():
    assert is_cycle(schrijver(5, 2), 5)
    assert is_cycle(schrijver(7, 3), 7)
    sg62 = schrijver(6, 2)
    assert (sg62.n, sg62.edge_count) == (9, 18)


@pytest.mark.parametrize("n", range(5, 13))
def test_schrijver_edge_count_oracle(n):
    assert schrijver(n, 2).edge_count == brute_sg2_edges(n)


def test_gn_small_cases():
    assert is_single_edge(gn(4))
    assert is_cycle(gn(5), 5)
    g6 = gn(6)
    assert (g6.n, g6.edge_count) == (9, 16)
    u, v = g6.labels.index("26"), g6.labels.index("35")
    assert g6.has_edge(u, v)  # the one transverse edge


def test_gn_invalid():
    with pytest.raises(InvalidParametersError):
        gn(3)


SIZED = {
    "gn": gn,
    "gn_chords": gn_chords,
    "chord_base": chord_base,
    "stable_subsets": lambda n: stable_subsets(n, 2),
    "kneser": lambda n: kneser(n, 2),
    "schrijver": lambda n: schrijver(n, 2),
    "mycielski_iter": mycielski_iter,
    "build_h": build_h,
    "lower_bound_chain": lower_bound_chain,
    "verify_edge_criticality": verify_edge_criticality,
}


@pytest.mark.parametrize("n", [6.0, "7"])
@pytest.mark.parametrize("name", sorted(SIZED))
def test_non_integral_n_is_a_parameter_error(name, n):
    with pytest.raises(InvalidParametersError, match="must be an integer"):
        SIZED[name](n)


def test_messages_below_the_least_n():
    cases = [
        (lambda: gn(3), "need n >= 4, got n=3"),
        (lambda: chord_base(3), "need n >= 4, got n=3"),
        (lambda: stable_subsets(3, 2), "need n >= 2k >= 2, got n=3, k=2"),
        (lambda: stable_subsets(5, 0), "need n >= 2k >= 2, got n=5, k=0"),
        (lambda: kneser(3, 2), "need n >= 2k >= 2, got n=3, k=2"),
        (lambda: schrijver(4, 3), "need n >= 2k >= 2, got n=4, k=3"),
        (lambda: mycielski_iter(1), "need k >= 2, got k=1"),
        (lambda: build_h(4), "need n >= 5, got n=4"),
        (lambda: lower_bound_chain(4), "need n >= 5, got n=4"),
        (lambda: verify_edge_criticality(3), "need n >= 4, got n=3"),
    ]
    for call, message in cases:
        with pytest.raises(InvalidParametersError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("n", range(6, 10))
def test_edge_pattern_on_ints_and_arrays_matches_oracle(n):
    chords = brute_chords(n)
    a, b = np.array(chords).T
    crossing, transverse = edge_pattern(a[:, None], b[:, None], a, b)
    for i, p in enumerate(chords):
        for j, q in enumerate(chords):
            got = edge_pattern(*p, *q)
            assert got == (crossing[i, j], transverse[i, j])
            if i < j:
                assert got == (
                    brute_pair_class(p, q) == "crossing",
                    brute_pair_class(p, q) == "transverse",
                )
            else:  # p does not start before q
                assert got == (False, False)


@pytest.mark.parametrize("n", range(4, 13))
def test_is_stable_pair_on_ints_and_arrays_matches_oracle(n):
    chords = set(brute_chords(n))
    ends = np.arange(-1, n + 3)
    mask = is_stable_pair(ends[:, None], ends, n)
    assert mask.dtype == bool and mask.shape == (len(ends),) * 2
    for i, a in enumerate(ends.tolist()):
        for j, b in enumerate(ends.tolist()):
            got = is_stable_pair(a, b, n)
            assert type(got) is bool
            assert got == mask[i, j] == ((a, b) in chords), (a, b)


@pytest.mark.parametrize("n", range(4, 31))
def test_gn_adjacency_matches_oracle(n):
    adj = unpack(gn(n).rows, len(gn_chords(n)))
    assert adj.dtype == bool and adj.shape == (len(gn_chords(n)),) * 2
    assert (adj == adj.T).all()
    assert not adj.diagonal().any()
    u, v = np.nonzero(np.triu(adj))
    assert set(zip(u.tolist(), v.tolist())) == brute_gn_edges(n)


@pytest.mark.parametrize("n", range(4, 31))
def test_gn_edges_match_oracle(n):
    g = gn(n)
    assert {(e.u, e.v) for e in g.edges()} == brute_gn_edges(n)


@pytest.mark.parametrize("n", range(4, 31))
def test_gn_degrees_match_partner_intervals(n):
    """Chord (a, b) has the crossing and transverse partners that the
    chord-by-chord census oracle counts: after it in chord order, (b-a-1)(n-b)
    crossing and, when a > 1, C(b-a-2, 2) transverse; before it too, a
    crossing for each point inside times each point outside [a, b], and,
    when a > 1, a transverse (a', b') around it with 1 < a' < a, b' > b."""
    g = gn(n)
    a, b = chord_table(n)
    inside, after = b - a - 1, n - b
    nested = np.where(a > 1, nonadjacent_pairs(inside), 0)
    later = inside * after + nested
    assert [sum(w > v for w in g.neighbors(v)) for v in range(g.n)] == later.tolist()
    assert int(later.sum()) == count_pairs(n).gn_edges == g.edge_count
    around = np.where(a > 1, (a - 2) * after, 0)
    degree = inside * (n - b + a - 1) + nested + around
    assert [g.degree(v) for v in range(g.n)] == degree.tolist()


@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
@pytest.mark.parametrize("n", range(4, 31))
def test_gn_export_is_pinned(n, fmt):
    assert sha256(export_graph(gn(n), fmt)) == PINNED["gn_export"][fmt][str(n)]


@pytest.mark.parametrize("n", range(4, 13))
def test_gn_is_spanning_subgraph_of_schrijver(n):
    g = gn(n)
    sg = schrijver(n, 2)
    assert g.labels == sg.labels
    assert all(sg.has_edge(e.u, e.v) for e in g.edges())


def test_chord_base_gives_every_chord_id():
    for n in range(4, 61):
        base = chord_base(n)
        assert len(base) == n - 1  # entry 0 unused; no chord starts at n-1, n
        assert [base[s] + t for s, t in gn_chords(n)] == list(range(len(gn_chords(n))))


def test_chord_base_needs_four_points():
    with pytest.raises(InvalidParametersError):
        chord_base(3)


@pytest.mark.parametrize("n", range(4, 11))
def test_gn_edges_join_disjoint_chords(n):
    g = gn(n)
    chords = gn_chords(n)
    for e in g.edges():
        assert not set(chords[e.u]) & set(chords[e.v])


def test_chord_labels_match_the_joined_elements():
    def joined(elems):
        return ("" if elems[-1] < 10 else "-").join(map(str, elems))

    for n in range(4, 41):
        for p in gn_chords(n):
            assert chord_label(p) == joined(p), p
    for n, k in ((5, 1), (7, 3), (12, 3), (14, 4), (11, 5)):
        for s in stable_subsets(n, k):
            assert chord_label(s) == joined(s), s
    assert [chord_label(s) for s in ((1, 3, 5), (2, 13), (9, 10), (1, 9))] == [
        "135", "2-13", "9-10", "19"]


def test_chord_labels():
    assert chord_label((2, 6)) == "26"
    assert chord_label((2, 13)) == "2-13"
    assert chord_label((1, 3, 5)) == "135"
    assert chord_label((2, 5, 11)) == "2-5-11"
    assert parse_chord("26", 8) == (2, 6)
    assert parse_chord("2-13", 15) == (2, 13)
    assert [parse_chord(t, 15) for t in (" 26 ", "2-05", "+2-5")] == [(2, 6), (2, 5), (2, 5)]
    with pytest.raises(InvalidParametersError):
        parse_chord("12", 8)  # consecutive, not a chord


@pytest.mark.parametrize("text", ["1-x", "-13", "1-", "1-2-3", "\u00b26"])
def test_parse_chord_rejects_malformed_text(text):
    # "\u00b26" is "²6": str.isdigit accepts the superscript, int() does not.
    with pytest.raises(InvalidParametersError) as err:
        parse_chord(text, 15)
    assert str(err.value) == f"cannot parse chord {text!r}"


def test_mycielski_of_k2_is_c5():
    assert is_cycle(mycielski(complete_pair()), 5)


def test_mycielski_of_c5_sizes():
    m = mycielski(mycielski(complete_pair()))
    assert (m.n, m.edge_count) == (11, 20)


def test_mycielski_structure():
    g = gn(5)
    m = mycielski(g)
    v = g.n
    star = 2 * v
    for e in g.edges():
        assert m.has_edge(e.u, e.v)
        assert m.has_edge(e.u, v + e.v)
        assert m.has_edge(e.v, v + e.u)
    assert m.neighbors(star) == tuple(range(v, star))
    assert len(set(m.labels)) == m.n


def test_mycielski_is_pinned():
    got = {key: sha256(export_graph(mycielski(g), "structured"))
           for key, g in _mycielski_inputs()}
    assert got == PINNED["mycielski"]


def test_mycielski_matches_edge_list_oracle():
    for key, g in _mycielski_inputs():
        assert mycielski(g) == edge_list_mycielski(g), key


def test_mycielski_rows_match_set_oracle():
    graphs = [gn(n) for n in range(4, 11)]
    graphs += [mycielski_iter(k) for k in range(2, 7)]
    graphs += [edgeless_graph(0), edgeless_graph(5)]
    for g in graphs:
        assert mycielski(g).rows == set_mycielski(g), g.labels


def test_delete_vertex_matches_rebuilt_graph():
    for g in (gn(7), schrijver(7, 2)):
        for v in range(g.n):
            keep = [u for u in range(g.n) if u != v]
            new = {u: i for i, u in enumerate(keep)}
            edges = [(new[a], new[b]) for a, b in g.edges() if v not in (a, b)]
            want = build_graph([g.labels[u] for u in keep], edges, g.n_hint)
            assert delete_vertex(g, v) == want, (g.labels, v)


def test_mycielski_size_recurrences():
    g = complete_pair()
    for _ in range(6):
        m = mycielski(g)
        assert m.n == 2 * g.n + 1
        assert m.edge_count == 3 * g.edge_count + g.n
        g = m


def test_mycielski_iterates_triangle_free():
    for k in range(2, 8):
        assert is_triangle_free(mycielski_iter(k))


def test_mycielski_preserves_triangle_freeness_generally():
    square = build_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_triangle_free(mycielski(square))


def test_mycielski_iter_base_and_sizes():
    assert is_single_edge(mycielski_iter(2))
    m5 = mycielski_iter(5)
    assert (m5.n, m5.edge_count) == (23, 71)
    with pytest.raises(InvalidParametersError):
        mycielski_iter(1)
