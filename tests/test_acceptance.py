"""Acceptance suite: one test per criterion, one printed verdict line each.

Run standalone with:  pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction
from math import comb

from chordcrit.criticality import verify_edge_criticality, verify_vertex_criticality
from chordcrit.families import gn, gn_chords, kneser, mycielski, mycielski_iter, schrijver
from chordcrit.graph import count_colors, delete_edge, is_proper_coloring
from chordcrit.homomorphism import build_h, verify_homomorphism
from chordcrit.pairs import count_pairs, edge_ratio
from chordcrit.solver import SolverConfig, chromatic_number, is_k_colorable

from helpers import run_min_based_trials, small_corpus
from oracles import (
    brute_census,
    brute_chromatic,
    interval_census,
    is_cycle,
    is_single_edge,
    is_triangle_free,
)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_chromatic_numbers():
    cfg = SolverConfig(time_budget=240)
    failures = []
    for n in range(4, 12):
        res = chromatic_number(gn(n), cfg)
        if res.status != "exact" or res.chi != n - 2:
            failures.append((n, res.chi, res.status))
    _verdict(1, not failures,
             f"chi(G_n) = n-2 exactly for n = 4..11 (failures: {failures})")


def test_criterion_2_edge_criticality_certificates():
    failures = []
    for n in range(4, 25):
        report = verify_edge_criticality(n)
        bad = [r for r in report.rows if r.verdict != "pass"]
        if bad:
            failures.append((n, len(bad)))
    _verdict(2, not failures,
             "every edge of G_n (n = 4..24) has a valid certificate: total, "
             f"<= n-3 colours, proper after deletion, endpoints equal (failures: {failures})")


def test_criterion_3_solver_cross_check():
    cfg = SolverConfig(time_budget=120)
    failures = []
    for n in range(4, 11):
        g = gn(n)
        if is_k_colorable(g, n - 3, cfg).status != "no":
            failures.append((n, "base"))
        for e in g.edges():
            if is_k_colorable(delete_edge(g, e), n - 3, cfg).status != "yes":
                failures.append((n, e))
    _verdict(3, not failures,
             f"G_n needs n-2 colours but every G_n - e takes n-3, n = 4..10 (failures: {failures})")


def test_criterion_4_homomorphism_chain():
    failures = []
    for n in range(5, 31):
        verdict = verify_homomorphism(mycielski(gn(n - 1)), gn(n), build_h(n))
        if not verdict.valid:
            failures.append((n, len(verdict.violations)))
    _verdict(4, not failures,
             f"h: M(G_n-1) -> G_n has zero violating edges for n = 5..30 (failures: {failures})")


def test_criterion_5_fixtures():
    checks = {
        "G_4 is K_2": is_single_edge(gn(4)),
        "G_5 is C_5": is_cycle(gn(5), 5),
        "SG(5,2) is C_5": is_cycle(schrijver(5, 2), 5),
        "G_5 equals SG(5,2)": gn(5) == schrijver(5, 2),
        "SG(7,3) is C_7": is_cycle(schrijver(7, 3), 7),
        "KG(5,2) sizes": (kneser(5, 2).n, kneser(5, 2).edge_count) == (10, 15),
        "chi(KG(5,2)) = 3": chromatic_number(kneser(5, 2)).chi == 3,
    }
    failures = [name for name, ok in checks.items() if not ok]
    _verdict(5, not failures, f"small fixtures match (failures: {failures})")


def test_criterion_6_pair_census_and_ratio():
    failures = []
    for n in range(4, 201):
        oracle = interval_census(n)
        if oracle["crossing"] != comb(n, 4):
            failures.append(("crossing", n))
        c = count_pairs(n)
        if (c.crossing, c.transverse, c.lateral, c.nested_through_1, c.intersecting) != (
            oracle["crossing"], oracle["transverse"], oracle["lateral"],
            oracle["nested-through-1"], oracle["intersecting"],
        ):
            failures.append(("census", n))
    oracle5, oracle6 = brute_census(5), brute_census(6)
    r5, r6, r50, r200 = edge_ratio(5), edge_ratio(6), edge_ratio(50), edge_ratio(200)
    if r5 != Fraction(1) or Fraction(
        oracle5["crossing"] + oracle5["transverse"],
        sum(oracle5[c] for c in ("crossing", "transverse", "lateral", "nested-through-1")),
    ) != r5:
        failures.append(("ratio", 5))
    if r6 != Fraction(8, 9) or Fraction(
        oracle6["crossing"] + oracle6["transverse"],
        sum(oracle6[c] for c in ("crossing", "transverse", "lateral", "nested-through-1")),
    ) != r6:
        failures.append(("ratio", 6))
    if abs(float(r200) - 2 / 3) >= 0.02:
        failures.append(("ratio-limit", 200))
    if not abs(r200 - Fraction(2, 3)) < abs(r50 - Fraction(2, 3)):
        failures.append(("ratio-monotone", (50, 200)))
    _verdict(6, not failures,
             "crossing counts are C(n,4) and the census matches its chord-by-chord "
             "oracle up to n = 200, and the edge ratio "
             f"approaches 2/3 (ratio(200) = {float(r200):.5f}; failures: {failures})")


def test_criterion_7_mycielski():
    failures = []
    for k in range(2, 6):
        res = chromatic_number(mycielski_iter(k))
        if res.status != "exact" or res.chi != k:
            failures.append(("chi", k))
    g = mycielski_iter(2)
    for k in range(3, 9):
        m = mycielski(g)
        if m.n != 2 * g.n + 1 or m.edge_count != 3 * g.edge_count + g.n:
            failures.append(("size", k))
        g = m
    for k in range(2, 8):
        if not is_triangle_free(mycielski_iter(k)):
            failures.append(("triangle", k))
    _verdict(7, not failures,
             f"M_k is k-chromatic (k <= 5), sizes recur (k <= 8), triangle-free (k <= 7) (failures: {failures})")


def test_criterion_8_vertex_criticality():
    cfg = SolverConfig(time_budget=120)
    failures = []
    # Edge-critical implies vertex-critical, so the G_n are checked too.
    graphs = [(f"SG({n},2)", schrijver(n, 2)) for n in (6, 7, 8)]
    graphs += [(f"G_{n}", gn(n)) for n in range(5, 10)]
    for name, g in graphs:
        report = verify_vertex_criticality(g, cfg)
        if report.timed_out:
            failures.append((name, "timeout"))
            continue
        for row in report.rows:
            if row.chi_before - row.chi_after != 1:
                failures.append((name, row.label))
    _verdict(8, not failures,
             "every vertex deletion in SG(6..8,2) and G_5..G_9 drops chi by exactly 1 "
             f"(failures: {failures})")


def test_criterion_9_property_suites():
    conflicts = run_min_based_trials(trials=1000, seed=0, max_n=30)
    failures = []
    if conflicts:
        failures.append(("min-based-conflicts", conflicts))
    for name, g in small_corpus():
        res = chromatic_number(g)
        if res.status != "exact" or res.chi != brute_chromatic(g):
            failures.append(("chromatic-oracle", name))
    _verdict(9, not failures,
             "10^3 min-based colouring trials conflict-free; solver matches "
             f"exhaustive enumeration on the <= 8-vertex corpus (failures: {failures})")
