import numpy as np
import pytest

from chordcrit.graph import (
    STRUCTURED_HEADER,
    Edge,
    MissingEdgeError,
    GraphFormatError,
    build_graph,
    count_colors,
    delete_edge,
    delete_vertex,
    edge,
    export_graph,
    is_proper_coloring,
    pack,
    parse_graph,
    unpack,
)
from chordcrit.families import gn
from chordcrit.solver import is_k_colorable

from helpers import complete_graph, cycle_graph
from oracles import brute_gn_edges, brute_proper


def test_edge_normalizes_order():
    assert edge(3, 1) == Edge(1, 3)
    assert edge(1, 3) == Edge(1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(["a", "a"], [])
    with pytest.raises(ValueError):
        build_graph(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(["a", "b"], [(0, 5)])


def test_delete_edge_k2():
    k2 = complete_graph(2)
    bare = delete_edge(k2, (0, 1))
    assert bare.edge_count == 0
    assert k2.edge_count == 1  # base graph untouched


def test_delete_edge_c5_leaves_2_colorable_path():
    c5 = cycle_graph(5)
    p5 = delete_edge(c5, (0, 1))
    assert p5.edge_count == 4
    assert is_k_colorable(c5, 2).status == "no"
    assert is_k_colorable(p5, 2).status == "yes"


def test_delete_edge_g6():
    g6 = gn(6)
    assert g6.edge_count == len(brute_gn_edges(6)) == 16
    u = g6.labels.index("26")
    v = g6.labels.index("35")
    assert delete_edge(g6, (u, v)).edge_count == 15


def test_delete_edge_missing_raises():
    g6 = gn(6)
    u = g6.labels.index("13")
    v = g6.labels.index("46")  # lateral pair, not an edge
    assert not g6.has_edge(u, v)
    with pytest.raises(MissingEdgeError):
        delete_edge(g6, (u, v))


def test_delete_edge_keeps_adjacency_symmetric():
    g = gn(7)
    for e in list(g.edges())[:10]:
        h = delete_edge(g, e)
        assert h.edge_count == g.edge_count - 1
        for u in range(h.n):
            for w in h.neighbors(u):
                assert h.has_edge(w, u)


def test_vertex_ids_outside_the_graph_are_not_edges():
    g6 = gn(6)
    edges = g6.edge_count
    for u, v in [(-1, 2), (2, -1), (-9, 0), (2, g6.n), (g6.n, 2)]:
        assert not g6.has_edge(u, v)
        with pytest.raises(MissingEdgeError):
            delete_edge(g6, (u, v))
    assert g6.edge_count == edges


def test_numpy_vertex_ids_past_bit_63():
    g = gn(14)
    u, v = next(e for e in g.edges() if e.v > 64)
    nu, nv = np.int64(u), np.int64(v)
    assert g.has_edge(nu, nv)
    assert delete_edge(g, (nu, nv)) == delete_edge(g, (u, v))
    assert delete_vertex(g, nv) == delete_vertex(g, v)
    edges = np.array(list(g.edges()))
    assert build_graph(g.labels, edges, g.n_hint) == g


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
def test_pack_round_trips(n):
    matrix = np.random.default_rng(n).random((n, n)) < 0.5
    rows = pack(matrix)
    assert len(rows) == n
    assert all(r >> w & 1 == matrix[u, w] for u, r in enumerate(rows) for w in range(n))
    assert all(r < 1 << n for r in rows)
    assert (unpack(rows, n) == matrix).all()
    assert unpack(rows, n).shape == (n, n)


def test_delete_vertex_reindexes():
    c5 = cycle_graph(5)
    p4 = delete_vertex(c5, 2)
    assert p4.n == 4
    assert p4.labels == ("c0", "c1", "c3", "c4")
    assert p4.edge_count == 3


def test_proper_coloring_k2():
    k2 = complete_graph(2)
    assert is_proper_coloring(k2, {0: 0, 1: 1}).proper
    check = is_proper_coloring(k2, {0: 0, 1: 0})
    assert not check.proper
    assert check.monochromatic == (Edge(0, 1),)


def test_two_coloring_of_c5_has_monochromatic_edge():
    c5 = cycle_graph(5)
    coloring = {v: v % 2 for v in range(5)}
    check = is_proper_coloring(c5, coloring)
    assert not check.proper
    assert len(check.monochromatic) >= 1


def test_incomplete_coloring_reports_vertices():
    c5 = cycle_graph(5)
    check = is_proper_coloring(c5, {0: 0, 2: 1})
    assert check.uncolored == (1, 3, 4)


def test_proper_coloring_matches_double_loop_oracle():
    g = gn(6)
    good = {v: v % 4 for v in range(g.n)}
    check = is_proper_coloring(g, good)
    assert check.proper == brute_proper(g, good)


def test_count_colors():
    assert count_colors({}) == 0
    assert count_colors({0: 7, 1: 7, 2: 7}) == 1
    assert count_colors({0: 1, 1: 2, 2: 1}) == 2


def test_export_dimacs_k2():
    assert export_graph(complete_graph(2), "dimacs") == "p edge 2 1\ne 1 2\n"


def test_export_g4_is_a_single_labelled_edge():
    g4 = gn(4)
    assert export_graph(g4, "dimacs") == "p edge 2 1\ne 1 2\n"
    assert export_graph(g4, "edgelist") == "13 24\n"


def test_export_g5_dimacs_shape():
    lines = export_graph(gn(5), "dimacs").splitlines()
    assert lines[0] == "p edge 5 5"
    assert len(lines) == 6
    degree = [0] * 5
    for ln in lines[1:]:
        _, a, b = ln.split()
        degree[int(a) - 1] += 1
        degree[int(b) - 1] += 1
    assert degree == [2] * 5


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_graph(gn(5), "graphml")


def test_structured_round_trip():
    for g in (gn(6), complete_graph(1), cycle_graph(4)):
        assert parse_graph(export_graph(g, "structured")) == g


def test_parse_graph_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_graph("not a graph\n")
    text = export_graph(gn(5), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("end", ""))


def test_parse_graph_rejects_neighbour_outside_vertices():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("adj 0 1 3", "adj 0 1 3 4"))


def test_parse_graph_rejects_self_loop():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("adj 0 1 3", "adj 0 0 1 3"))


def test_parse_graph_rejects_adj_without_id():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("adj 0 1 3", "adj"))


def test_parse_graph_rejects_non_integer_field():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("vertices 4", "vertices x"))


def test_parse_graph_rejects_negative_vertex_count():
    text = f"{STRUCTURED_HEADER}\nvertices -1\nn_hint -\nend\n"
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_graph_rejects_repeated_label():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("label 0 c0", "label 0 c0\nlabel 0 other"))


def test_parse_graph_rejects_repeated_adj():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("adj 0 1 3", "adj 0 1 3\nadj 0 1 3"))


def test_parse_graph_rejects_repeated_vertices():
    # The later count must not replace the first: G_4 has 2 vertices.
    text = export_graph(gn(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("vertices 2", "vertices 5\nvertices 2"))


def test_parse_graph_rejects_equal_labels():
    text = export_graph(cycle_graph(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("label 1 c1", "label 1 c0"))


def test_parse_graph_rejects_repeated_n_hint():
    text = export_graph(gn(4), "structured")
    with pytest.raises(GraphFormatError):
        parse_graph(text.replace("n_hint 4", "n_hint 4\nn_hint 9"))
