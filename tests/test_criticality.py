import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest

from chordcrit import criticality, families
from chordcrit.criticality import (
    CriticalCase,
    NotAnEdgeError,
    critical_coloring,
    min_based_coloring,
    verify_edge_criticality,
    verify_vertex_criticality,
)
from chordcrit.families import (
    PairClass,
    classify_pair,
    gn,
    gn_chords,
    is_stable_pair,
    kneser,
    mycielski_iter,
    schrijver,
)
from chordcrit.graph import (
    build_graph,
    count_colors,
    delete_edge,
    delete_vertex,
    is_proper_coloring,
)
from chordcrit.solver import ColorDecision, SolverConfig, chromatic_number

from helpers import PINNED, cycle_graph, edgeless_graph, sha256, small_corpus
from oracles import (
    brute_chords,
    brute_chromatic,
    brute_pair_class,
    full_scan_rows,
    per_edge_rows,
    scalar_certificate,
)


def chord_of(n, label):
    return tuple(int(ch) for ch in label)


def chord_id(n, p):
    s, t = p
    return families.chord_base(n)[s] + t


def change_certificates(monkeypatch, change):
    """Make every certificate ``change(n, p, q, cert)``, where cert is the
    certificate built for the edge {p, q}.

    The change goes in at the batch construction, so the sweep,
    ``critical_coloring`` and the oracles that call it all see it.  It may
    change A and the overrides; a second call changes the changed ones.
    """
    original = criticality._certificate_batch

    def changed(n, p, q):
        batch = original(n, p, q)
        certs = [
            change(n, tuple(p[r].tolist()), tuple(q[r].tolist()),
                   criticality._row_certificate(n, batch, r))
            for r in range(len(p))
        ]
        width = batch.A.shape[1]
        return batch._replace(
            A=np.array([c.A + (0,) * (width - len(c.A)) for c in certs],
                       dtype=np.int64),
            row=np.array([r for r, c in enumerate(certs) for _ in c.overrides],
                         dtype=np.int64),
            chord=np.array([v for c in certs for v in c.overrides], dtype=np.int64),
            color=np.array([k for c in certs for k in c.overrides.values()],
                           dtype=np.int64),
        )

    monkeypatch.setattr(criticality, "_certificate_batch", changed)


def classes_by_special(n, cert):
    """Fresh class li is the overridden chords of colour n+i."""
    chords = gn_chords(n)
    out = {}
    for v, c in cert.overrides.items():
        out.setdefault(f"l{c - n}", []).append(chords[v])
    return {name: sorted(members) for name, members in out.items()}


def test_select_case_crossing_with_1():
    cert = critical_coloring(6, (1, 3), (2, 4))
    assert cert.case is CriticalCase.CROSSING_WITH_1
    assert cert.A == (1, 2, 3, 4)  # (a, c, b, d)


def test_select_case_crossing_without_1():
    cert = critical_coloring(7, (2, 4), (3, 5))
    assert cert.case is CriticalCase.CROSSING_WITHOUT_1
    assert cert.A == (1, 2, 3, 4, 5)  # (1, a, c, b, d)


def test_select_case_transverse():
    cert = critical_coloring(6, (2, 6), (3, 5))
    assert cert.case is CriticalCase.TRANSVERSE
    assert cert.A == (1, 2, 3, 4, 5, 6)  # (1, a, c, x, d, b)


def test_select_case_argument_order_irrelevant():
    assert critical_coloring(6, (3, 5), (2, 6)) == critical_coloring(6, (2, 6), (3, 5))


def test_select_case_rejects_non_edges():
    with pytest.raises(NotAnEdgeError):
        critical_coloring(6, (1, 3), (4, 6))  # lateral
    with pytest.raises(NotAnEdgeError):
        critical_coloring(6, (1, 5), (2, 4))  # nested through 1
    with pytest.raises(NotAnEdgeError):
        critical_coloring(6, (1, 3), (3, 5))  # intersecting


@pytest.mark.parametrize("n", range(4, 10))
def test_select_case_exhaustive_over_edges_and_non_edges(n):
    chords = gn_chords(n)
    for p, q in combinations(chords, 2):
        cls = classify_pair(p, q, n)
        if cls in (PairClass.CROSSING, PairClass.TRANSVERSE):
            cert = critical_coloring(n, p, q)
            expected = {
                PairClass.CROSSING: (
                    CriticalCase.CROSSING_WITH_1
                    if 1 in p or 1 in q
                    else CriticalCase.CROSSING_WITHOUT_1
                ),
                PairClass.TRANSVERSE: CriticalCase.TRANSVERSE,
            }[cls]
            assert cert.case is expected
        else:
            with pytest.raises(NotAnEdgeError):
                critical_coloring(n, p, q)


def test_min_based_coloring_examples():
    chords7 = gn_chords(7)
    ids7 = {p: i for i, p in enumerate(chords7)}
    c = min_based_coloring(7, {1, 2, 3, 4})
    assert c[ids7[(3, 6)]] == 6
    assert c[ids7[(5, 7)]] == 5
    # chords inside A stay uncoloured
    assert ids7[(1, 3)] not in c
    assert min_based_coloring(6, set(range(1, 7))) == {}


@pytest.mark.parametrize("n", [4, 5, 9, 16, 31, 40])
def test_min_based_coloring_matches_definition(n):
    rng = random.Random(n)
    chords = brute_chords(n)
    for _ in range(50):
        A = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        expected = {
            i: min(set(p) - A) for i, p in enumerate(chords) if set(p) - A
        }
        assert min_based_coloring(n, A) == expected


def test_min_based_coloring_uses_only_colors_outside_a():
    A = {2, 5, 9}
    c = min_based_coloring(11, A)
    assert set(c.values()) <= set(range(1, 12)) - A


def test_min_based_equal_colors_share_the_color_element():
    chords = gn_chords(9)
    c = min_based_coloring(9, {1, 4, 7})
    for v, colour in c.items():
        assert colour in chords[v]


def test_case1_certificate_n6():
    cert = critical_coloring(6, (1, 3), (2, 4))
    assert cert.case is CriticalCase.CROSSING_WITH_1
    assert cert.A == (1, 2, 3, 4)
    assert cert.colors_used == 3
    classes = classes_by_special(6, cert)
    assert classes["l1"] == [(1, 3), (1, 4), (2, 4)]
    chords = gn_chords(6)
    min_colors = {c for c in cert.assignment.values() if c <= 6}
    assert min_colors <= {5, 6}
    assert all(c in chords[v] for v, c in cert.assignment.items()
               if c in min_colors)


def test_case3_certificate_n6_matches_stated_classes():
    cert = critical_coloring(6, (2, 6), (3, 5))
    assert cert.case is CriticalCase.TRANSVERSE
    assert cert.A == (1, 2, 3, 4, 5, 6)
    assert cert.A[3] == 3 + 1  # x = c+1
    assert cert.colors_used == 3
    classes = classes_by_special(6, cert)
    assert classes["l1"] == [(1, 4), (1, 5), (2, 4)]
    assert classes["l2"] == [(1, 3), (3, 6), (4, 6)]
    assert classes["l3"] == [(2, 5), (2, 6), (3, 5)]


def test_case2_certificate_n7():
    cert = critical_coloring(7, (2, 4), (3, 6))
    assert cert.case is CriticalCase.CROSSING_WITHOUT_1
    assert cert.A == (1, 2, 3, 4, 6)
    assert cert.colors_used == 4  # n - 3
    classes = classes_by_special(7, cert)
    # stable members of {1a,1b,1c,1d,bc,bd} with (a,b,c,d) = (2,4,3,6)
    assert classes["l1"] == [(1, 3), (1, 4), (1, 6), (4, 6)]
    assert classes["l2"] == [(2, 4), (2, 6), (3, 6)]
    min_colors = {c for c in cert.assignment.values() if c <= 7}
    assert min_colors == {5, 7}


def test_certificate_rejects_non_edge():
    with pytest.raises(NotAnEdgeError):
        critical_coloring(6, (1, 3), (4, 6))


@pytest.mark.parametrize("n", range(4, 10))
def test_certificates_valid_on_every_edge(n):
    g = gn(n)
    chords = gn_chords(n)
    for e in g.edges():
        cert = critical_coloring(n, chords[e.u], chords[e.v])
        assert len(cert.assignment) == g.n
        assert cert.colors_used <= n - 3
        assert cert.assignment[e.u] == cert.assignment[e.v]
        check = is_proper_coloring(delete_edge(g, e), cert.assignment)
        assert check.proper, (n, chords[e.u], chords[e.v], check.monochromatic)


@pytest.mark.parametrize("n", range(6, 10))
def test_case1_anchor_contains_unique_crossing_no_transverse(n):
    chords = gn_chords(n)
    g = gn(n)
    for e in g.edges():
        p, q = chords[e.u], chords[e.v]
        if 1 not in p and 1 not in q:
            continue
        if classify_pair(p, q, n) is not PairClass.CROSSING:
            continue
        A = sorted(set(p) | set(q))
        inside = [
            t for t in combinations(A, 2) if is_stable_pair(t[0], t[1], n)
        ]
        classes = [
            classify_pair(s, t, n) for s, t in combinations(inside, 2)
        ]
        assert classes.count(PairClass.CROSSING) == 1
        assert PairClass.TRANSVERSE not in classes


@pytest.mark.parametrize("n", range(6, 12))
def test_case3_inner_chord_admits_an_interior_element(n):
    chords = gn_chords(n)
    g = gn(n)
    for e in g.edges():
        p, q = chords[e.u], chords[e.v]
        if classify_pair(p, q, n) is not PairClass.TRANSVERSE:
            continue
        one, a, c, x, d, b = critical_coloring(n, p, q).A
        assert {(a, b), (c, d)} == {p, q}
        assert d - c >= 2
        assert (one, x) == (1, c + 1)
        assert a < c < x < d < b


@pytest.mark.parametrize("n", range(4, 7))
def test_solver_agrees_deleted_edges_need_n_minus_3(n):
    g = gn(n)
    for e in g.edges():
        res = chromatic_number(delete_edge(g, e))
        assert res.status == "exact"
        assert res.chi == n - 3


def test_verify_edge_criticality_report():
    report = verify_edge_criticality(6)
    assert report.all_pass
    assert report.passed == 16
    assert "certificates 16/16 valid at n=6" in report.render()


def test_verify_edge_criticality_with_solver():
    report = verify_edge_criticality(6, use_solver=True)
    assert report.solver_confirms_chromatic is True
    assert not report.solver_timed_out
    assert "not 3-colourable: confirmed" in report.render()


def test_verify_edge_criticality_solver_timeout_is_flagged():
    cfg = SolverConfig(time_budget=1e-9, backtrack_check_interval=1)
    report = verify_edge_criticality(8, use_solver=True, cfg=cfg)
    assert report.all_pass  # certificates themselves need no solver
    assert report.solver_timed_out
    assert report.solver_confirms_chromatic is False
    assert "not 5-colourable: timeout" in report.render()


def test_verify_edge_criticality_n4_single_color():
    report = verify_edge_criticality(4)
    assert report.passed == 1
    assert report.rows[0].colors_used == 1


@pytest.mark.parametrize("n", range(4, 21))
def test_edge_criticality_report_is_pinned(n):
    report = verify_edge_criticality(n).render()
    assert sha256(report) == PINNED["edge_criticality_render"][str(n)]


def rows_text(report):
    """The report formatted line by line from its rows."""
    rows = report.rows
    text = [
        f"{r.edge} {r.case} {r.colors_used} {str(r.proper).lower()} "
        f"{str(r.endpoints_monochromatic).lower()} {r.verdict}\n"
        for r in rows
    ]
    passed = sum(r.verdict == "pass" for r in rows)
    text.append(f"certificates {passed}/{len(rows)} valid at n={report.n}\n")
    if report.solver_status is not None:
        word = {"no": "confirmed", "yes": "refuted", "timeout": "timeout"}
        text.append(f"solver: base graph not {report.n - 3}-colourable: "
                    f"{word[report.solver_status]}\n")
    return "".join(text)


@pytest.mark.parametrize(
    "n, use_solver", [(n, False) for n in range(4, 21)] + [(7, True)]
)
def test_lines_match_rows(n, use_solver):
    """Lines and rows are formatted from the verdicts independently."""
    report = verify_edge_criticality(n, use_solver=use_solver)
    assert "".join(report.lines()) == rows_text(report)


def test_rows_are_built_only_when_read(monkeypatch):
    made = []

    class Counted(criticality.EdgeCertRow):
        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(criticality, "EdgeCertRow", Counted)
    report = verify_edge_criticality(9)
    assert report.all_pass and report.render() and not made
    rows = report.rows
    assert len(made) == len(rows) == report.passed == gn(9).edge_count


def test_report_keeps_at_most_16_bytes_an_edge():
    report = verify_edge_criticality(30)
    assert not any(chunk.dtype.hasobject for chunk in report.chunks)
    kept = sum(chunk.nbytes for chunk in report.chunks)
    assert kept <= 16 * gn(30).edge_count


def test_reports_compare_by_identity():
    a, b = verify_edge_criticality(6), verify_edge_criticality(6)
    assert a == a and a != b and a.rows == b.rows


@pytest.mark.parametrize("n", range(7, 11))
def test_colors_used_matches_assignment_under_overrides(monkeypatch, n):
    """Random overrides, some displacing every chord of an element or using
    elements of A: the sweep's count from A and the overrides equals the
    full scan's count over the whole colouring."""
    chords = gn_chords(n)
    for trial in range(3):
        def recoloured(n, p, q, cert, trial=trial):
            rng = random.Random(f"{n}:{p}:{q}:{trial}")
            overrides = dict(cert.overrides)
            e_color = rng.randint(1, n)
            targets = [v for v, t in enumerate(chords) if e_color in t]
            for v in rng.sample(targets, rng.randint(1, len(targets))):
                overrides[v] = rng.randint(1, n + 4)
            return dataclasses.replace(cert, overrides=overrides)

        with monkeypatch.context() as patch:
            change_certificates(patch, recoloured)
            assert list(verify_edge_criticality(n).rows) == full_scan_rows(n)


@pytest.mark.parametrize("n", range(4, 17))
def test_sweep_matches_full_scan_oracle(n):
    assert list(verify_edge_criticality(n).rows) == full_scan_rows(n)


@pytest.mark.parametrize("n", range(4, 15))
def test_certificates_match_scalar_construction(n):
    """The batch construction, read one row at a time, builds the same
    case, A and overrides as the edge-by-edge construction, whose case
    comes from the brute-force pair class."""
    g = gn(n)
    chords = gn_chords(n)
    for e in g.edges():
        p, q = chords[e.u], chords[e.v]
        assert critical_coloring(n, p, q) == scalar_certificate(n, p, q), (p, q)


@pytest.mark.parametrize("n", range(17, 23))
def test_sweep_matches_per_edge_oracle(n):
    """Past the full scan's reach: each certificate checked on its own."""
    assert list(verify_edge_criticality(n).rows) == per_edge_rows(n)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_rows_do_not_depend_on_chunk_size(monkeypatch, chunk):
    expected = {n: verify_edge_criticality(n).rows for n in range(4, 13)}
    monkeypatch.setattr(criticality, "_CHUNK", chunk)
    for n in range(4, 13):
        assert verify_edge_criticality(n).rows == expected[n], n


def perturbed(n, p, q, cert):
    """The certificate with one chord recoloured to another colour in use."""
    rng = random.Random(f"{n}:{p}:{q}")
    assignment = cert.assignment
    v = rng.choice(sorted(assignment))
    others = sorted(set(assignment.values()) - {assignment[v]})
    overrides = {**cert.overrides, v: rng.choice(others)}
    return dataclasses.replace(cert, overrides=overrides)


@pytest.mark.parametrize("n", range(6, 11))
def test_perturbed_certificates_match_full_scan_oracle(monkeypatch, n):
    """Recolour one chord of every certificate to another colour in use:
    the check of the overrides must still agree with the full scan."""
    change_certificates(monkeypatch, perturbed)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {True, False}


@pytest.mark.parametrize("n", [8, 9])
def test_lines_match_rows_of_failing_certificates(monkeypatch, n):
    change_certificates(monkeypatch, perturbed)
    report = verify_edge_criticality(n)
    rows = report.rows
    assert any(r.proper != r.endpoints_monochromatic for r in rows)
    assert 0 < report.passed < len(rows) and not report.all_pass
    assert "".join(report.lines()) == rows_text(report)


@pytest.mark.parametrize("chunk", [7, 1024])
def test_edge_chunks_follow_edge_order_across_row_blocks(monkeypatch, chunk):
    """Past 1,024 chords the nonzeros are taken a block of rows at a time."""
    monkeypatch.setattr(criticality, "_CHUNK", chunk)
    upper = families._upper_adjacency(gn_chords(47))
    chunks = list(criticality._edge_chunks(upper))
    assert max(len(u) for u, _ in chunks) == chunk
    u, v = (np.concatenate(ends).tolist() for ends in zip(*chunks))
    assert list(zip(u, v)) == list(gn(47).edges())


@pytest.mark.parametrize("n", range(6, 11))
def test_endpoints_recoloured_inside_a_match_full_scan_oracle(monkeypatch, n):
    """Give both ends of the deleted edge an element of A that neither
    contains: only the deleted edge joins two chords of that colour, so the
    check must skip it for a colour <= n too."""
    def recoloured(n, p, q, cert):
        spare = sorted(set(cert.A) - set(p) - set(q))
        if not spare:
            return cert
        overrides = {**cert.overrides, chord_id(n, p): spare[-1],
                     chord_id(n, q): spare[-1]}
        return dataclasses.replace(cert, overrides=overrides)

    change_certificates(monkeypatch, recoloured)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {True}


@pytest.mark.parametrize("n", range(6, 11))
def test_dropped_override_matches_full_scan_oracle(monkeypatch, n):
    """Drop one override of every certificate: a chord inside A is left
    uncoloured, and the check must find the certificate not total."""
    def dropped(n, p, q, cert):
        overrides = dict(cert.overrides)
        del overrides[random.Random(f"{n}:{p}:{q}").choice(sorted(overrides))]
        return dataclasses.replace(cert, overrides=overrides)

    change_certificates(monkeypatch, dropped)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert not any(r.total for r in rows)


@pytest.mark.parametrize("n", range(6, 11))
def test_chord_outside_a_in_fresh_class_matches_full_scan_oracle(monkeypatch, n):
    """Give a chord outside A the colour of a fresh class: the class check
    must see it, and the count must see the min-based colour it leaves."""
    chords = gn_chords(n)

    def widened(n, p, q, cert):
        rng = random.Random(f"{n}:{p}:{q}")
        outside = [v for v, t in enumerate(chords) if not set(t) <= set(cert.A)]
        if not outside:
            return cert
        overrides = {**cert.overrides, rng.choice(outside): n + 1}
        return dataclasses.replace(cert, overrides=overrides)

    change_certificates(monkeypatch, widened)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {True, False}


@pytest.mark.parametrize("n", range(6, 11))
def test_edge_outside_a_in_fresh_class_matches_full_scan_oracle(monkeypatch, n):
    """Put both ends of an edge outside A into a fresh class: neither end
    is inside A, and the class check must still see the edge."""
    g = gn(n)
    chords = gn_chords(n)
    changed = []

    def joined(n, p, q, cert):
        outside = {v for v, t in enumerate(chords) if not set(t) <= set(cert.A)}
        pairs = [(v, w) for v in sorted(outside)
                 for w in sorted(outside.intersection(g.neighbors(v))) if v < w]
        if not pairs:
            return cert
        changed.append((p, q))
        v, w = random.Random(f"{n}:{p}:{q}").choice(pairs)
        overrides = {**cert.overrides, v: n + 1, w: n + 1}
        return dataclasses.replace(cert, overrides=overrides)

    change_certificates(monkeypatch, joined)
    rows = list(verify_edge_criticality(n).rows)
    assert 0 < sum(not r.proper for r in rows) == len(changed)
    assert rows == full_scan_rows(n)


@pytest.mark.parametrize("n", range(6, 11))
def test_neighbour_moved_into_fresh_class_matches_full_scan_oracle(monkeypatch, n):
    """Move a neighbour of a fresh-class member into that class: the class
    then holds an edge other than the deleted one."""
    g = gn(n)

    def joined(n, p, q, cert):
        rng = random.Random(f"{n}:{p}:{q}")
        v = rng.choice(sorted(cert.overrides))
        c = cert.overrides[v]
        deleted = {chord_id(n, p), chord_id(n, q)}
        nbrs = sorted(w for w in g.neighbors(v) if cert.overrides.get(w) != c
                      and {v, w} != deleted)
        overrides = {**cert.overrides, rng.choice(nbrs): c}
        return dataclasses.replace(cert, overrides=overrides)

    change_certificates(monkeypatch, joined)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {False}


def shuffle_overrides(monkeypatch):
    """Put every batch's (row, chord, colour) triples in a random order."""
    original = criticality._certificate_batch

    def shuffled(n, p, q):
        batch = original(n, p, q)
        order = np.random.default_rng([n, len(p)]).permutation(len(batch.row))
        return batch._replace(row=batch.row[order], chord=batch.chord[order],
                              color=batch.color[order])

    monkeypatch.setattr(criticality, "_certificate_batch", shuffled)


def test_rows_do_not_depend_on_override_order(monkeypatch):
    expected = {n: verify_edge_criticality(n).rows for n in range(4, 13)}
    shuffle_overrides(monkeypatch)
    for n in range(4, 13):
        assert verify_edge_criticality(n).rows == expected[n], n


@pytest.mark.parametrize("n", range(6, 11))
def test_shuffled_recoloured_overrides_match_full_scan_oracle(monkeypatch, n):
    """Recolour one chord of every certificate to another colour in use, then
    shuffle the overrides: the check must agree with the full scan."""
    change_certificates(monkeypatch, perturbed)
    shuffle_overrides(monkeypatch)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {True, False}


@pytest.mark.parametrize("n", range(6, 11))
def test_override_colours_outside_one_to_n_plus_3(monkeypatch, n):
    """Colours 0, -1 and n+7 on chords inside and outside A: the sweep
    agrees with the full scan, also once element 1 leaves A (every case puts
    it in A)."""
    chords = gn_chords(n)
    extremes = (0, -1, n + 7)

    def recoloured(n, p, q, cert):
        rng = random.Random(f"{n}:{p}:{q}")
        picked = rng.sample(range(len(chords)), 3)
        return dataclasses.replace(cert, overrides={
            **cert.overrides, **{v: rng.choice(extremes) for v in picked}})

    change_certificates(monkeypatch, recoloured)
    rows = list(verify_edge_criticality(n).rows)
    assert rows == full_scan_rows(n)
    assert {r.proper for r in rows} == {True, False}
    change_certificates(monkeypatch,
                        lambda n, p, q, cert: dataclasses.replace(cert, A=cert.A[1:]))
    assert list(verify_edge_criticality(n).rows) == full_scan_rows(n)


@pytest.mark.parametrize("n", range(4, 13))
def test_row_colors_used_matches_certificate(n):
    g = gn(n)
    chords = gn_chords(n)
    rows = verify_edge_criticality(n).rows
    for row, e in zip(rows, g.edges(), strict=True):
        cert = critical_coloring(n, chords[e.u], chords[e.v])
        assert row.colors_used == cert.colors_used, row.edge


def adjacency_with(n, p, q):
    """The upper triangle of gn(n)'s adjacency with the chords p < q joined
    as well."""
    adj = families._upper_adjacency(gn_chords(n))
    adj[chord_id(n, p), chord_id(n, q)] = True
    return adj


def test_sweep_rejects_edge_between_intersecting_chords(monkeypatch):
    n = 7
    bad = adjacency_with(n, (1, 3), (1, 5))
    monkeypatch.setattr(criticality, "_upper_adjacency", lambda chords: bad)
    with pytest.raises(AssertionError, match="intersecting"):
        verify_edge_criticality(n)


def test_sweep_builds_no_graph_without_solver(monkeypatch):
    def refuse(n):
        raise AssertionError("the sweep built gn(n)")

    expected = verify_edge_criticality(9).render()
    monkeypatch.setattr(criticality, "gn", refuse)
    assert verify_edge_criticality(9).render() == expected


def test_chord_list_built_once_per_sweep(monkeypatch):
    calls = []
    original = families.stable_subsets

    def counting(n, k):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(families, "stable_subsets", counting)
    families.gn_chords.cache_clear()
    families.chord_base.cache_clear()
    report = verify_edge_criticality(9)
    assert report.all_pass and len(report.rows) > 1
    assert calls == [(9, 2)]


def test_vertex_criticality_c5():
    report = verify_vertex_criticality(cycle_graph(5), SolverConfig(time_budget=30))
    assert report.chi == 3
    assert report.all_dropped
    assert all(r.chi_after == 2 for r in report.rows)


@pytest.mark.parametrize("pair", [((1, 3), (4, 6)), ((1, 5), (2, 4))])
def test_sweep_rejects_edge_between_disjoint_non_edge_chords(monkeypatch, pair):
    """A lateral or nested-through-1 pair joins disjoint chords but is no
    edge of gn(n): the sweep must stop rather than report a row for it."""
    n = 7
    p, q = pair
    bad = adjacency_with(n, p, q)
    monkeypatch.setattr(criticality, "_upper_adjacency", lambda chords: bad)
    cls = classify_pair(p, q, n).value
    with pytest.raises(AssertionError, match=f"form a {cls} pair, not an edge"):
        verify_edge_criticality(n)


def _c5_with_pendant():
    labels = [*cycle_graph(5).labels, "p"]
    return build_graph(labels, [*cycle_graph(5).edges(), (0, 5)])


VERTEX_CORPUS = {
    **{f"sg/{n}": (lambda n=n: schrijver(n, 2)) for n in range(5, 9)},
    **{f"gn/{n}": (lambda n=n: gn(n)) for n in range(5, 10)},
    **{f"mycielski_iter/{k}": (lambda k=k: mycielski_iter(k)) for k in range(2, 6)},
    "kneser/5/2": lambda: kneser(5, 2),
    "c5_pendant": _c5_with_pendant,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(VERTEX_CORPUS))
def test_vertex_criticality_report_is_pinned(name, seed):
    report = verify_vertex_criticality(VERTEX_CORPUS[name](), SolverConfig(seed=seed))
    assert sha256(report.render()) == PINNED["vertex_criticality"][f"{name}/{seed}"]


def test_vertex_sweep_makes_one_decision_per_vertex(monkeypatch):
    chi_calls, decisions = [], []
    original_chi = criticality.chromatic_number
    original_decide = criticality.is_k_colorable

    def counting_chi(g, cfg=None):
        chi_calls.append(g.n)
        return original_chi(g, cfg)

    def counting_decide(g, k, cfg=None):
        decisions.append((g.n, k))
        return original_decide(g, k, cfg)

    monkeypatch.setattr(criticality, "chromatic_number", counting_chi)
    monkeypatch.setattr(criticality, "is_k_colorable", counting_decide)
    g = schrijver(7, 2)
    report = verify_vertex_criticality(g, SolverConfig(seed=1))
    assert report.all_dropped
    assert chi_calls == [g.n]
    assert decisions == [(g.n - 1, report.chi - 1)] * g.n


def test_vertex_sweep_timeout_keeps_chi(monkeypatch):
    monkeypatch.setattr(
        criticality, "is_k_colorable", lambda g, k, cfg=None: ColorDecision("timeout")
    )
    g = gn(7)
    report = verify_vertex_criticality(g)
    assert report.timed_out
    assert not report.all_dropped
    lines = report.render().splitlines()
    assert lines[:-1] == [f"{label} 5 5 timeout" for label in g.labels]
    assert lines[-1] == f"vertex deletions dropping chi: 0/{g.n}"


@pytest.mark.parametrize(
    "name, g",
    [*small_corpus(), ("edgeless_1", edgeless_graph(1)), ("C_5_pendant", _c5_with_pendant())],
)
def test_vertex_rows_match_exhaustive_oracle(name, g):
    """One decision at chi - 1 per row gives the chromatic number of G - v."""
    report = verify_vertex_criticality(g)
    assert report.chi == brute_chromatic(g)
    assert not report.timed_out
    assert [r.chi_after for r in report.rows] == [
        brute_chromatic(delete_vertex(g, v)) for v in range(g.n)
    ]
