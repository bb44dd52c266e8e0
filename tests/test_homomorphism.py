import dataclasses
import random

import pytest

from chordcrit import homomorphism
from chordcrit.cli import EXIT_VERIFY_FAIL, main
from chordcrit.families import (
    InvalidParametersError,
    PairClass,
    classify_pair,
    gn,
    gn_chords,
    is_stable_pair,
    mycielski,
)
from chordcrit.graph import Edge, build_graph
from chordcrit.homomorphism import build_h, lower_bound_chain, verify_homomorphism
from chordcrit.solver import chromatic_number

from helpers import PINNED, sha256
from oracles import brute_hom_violations, is_cycle


def test_h_image_defining_values():
    # Vertices of the expansion of gn(5): base chords, then clones, then the apex.
    chords5, chords6 = gn_chords(5), gn_chords(6)
    h = build_h(6)
    m = len(chords5)
    assert chords6[h[chords5.index((2, 4))]] == (2, 4)
    assert chords6[h[m + chords5.index((1, 3))]] == (3, 6)
    assert chords6[h[m + chords5.index((2, 4))]] == (2, 6)
    assert chords6[h[2 * m]] == (1, 5)


@pytest.mark.parametrize("n", range(5, 16))
def test_h_images_are_chords(n):
    h = build_h(n)
    assert len(h) == mycielski(gn(n - 1)).n
    chords = gn_chords(n)
    for i in h:
        a, b = chords[i]
        assert is_stable_pair(a, b, n)


@pytest.mark.parametrize("n", range(5, 16))
def test_clone_images_contain_n_and_pair_with_star_as_crossing(n):
    chords = gn_chords(n)
    h = build_h(n)
    m = len(gn_chords(n - 1))
    star_img = chords[h[2 * m]]
    assert star_img == (1, n - 1)
    for clone in range(m, 2 * m):
        img = chords[h[clone]]
        assert n in img
        assert classify_pair(img, star_img, n) is PairClass.CROSSING


def test_verify_homomorphism_identity_and_constant():
    g = gn(6)
    assert verify_homomorphism(g, g, tuple(range(g.n))).valid
    verdict = verify_homomorphism(g, g, (0,) * g.n)
    assert not verdict.valid
    assert len(verdict.violations) == g.edge_count


def test_verify_homomorphism_requires_total_map():
    g = gn(5)
    with pytest.raises(InvalidParametersError):
        verify_homomorphism(g, g, (0, 1))


def test_verify_homomorphism_rejects_negative_image():
    # -9 would wrap round to gn(6)'s vertex build_h(6)[0], since gn(6) has 9.
    h = list(build_h(6))
    h[0] -= 9
    with pytest.raises(InvalidParametersError):
        verify_homomorphism(mycielski(gn(5)), gn(6), tuple(h))


def test_verify_homomorphism_rejects_image_past_codomain():
    cod = gn(6)
    h = list(build_h(6))
    h[-1] = cod.n
    with pytest.raises(InvalidParametersError):
        verify_homomorphism(mycielski(gn(5)), cod, tuple(h))


@pytest.mark.parametrize("n", range(5, 13))
def test_violations_match_edge_filter_on_random_maps(n):
    dom, cod = mycielski(gn(n - 1)), gn(n)
    rng = random.Random(n)
    h = build_h(n)
    for trial in range(6):
        if trial % 2:
            mapping = tuple(rng.randrange(cod.n) for _ in range(dom.n))
        else:  # the chain's map with a few images moved
            mapping = list(h)
            for u in rng.sample(range(dom.n), 3):
                mapping[u] = rng.randrange(cod.n)
            mapping = tuple(mapping)
        verdict = verify_homomorphism(dom, cod, mapping)
        expected = brute_hom_violations(dom, cod, mapping)
        assert verdict.violations == expected
        assert verdict.valid == (not expected)


def test_build_h_base_case_n5():
    dom = mycielski(gn(4))
    assert is_cycle(dom, 5)
    cod = gn(5)
    assert verify_homomorphism(dom, cod, build_h(5)).valid


def test_build_h_n6_grotzsch_into_g6():
    dom = mycielski(gn(5))
    assert (dom.n, dom.edge_count) == (11, 20)
    verdict = verify_homomorphism(dom, gn(6), build_h(6))
    assert verdict.valid
    # spot check one image pair from the definition
    h = build_h(6)
    chords5 = gn_chords(5)
    chords6 = gn_chords(6)
    base_13 = chords5.index((1, 3))
    clone_24 = len(chords5) + chords5.index((2, 4))
    assert chords6[h[base_13]] == (1, 3)
    assert chords6[h[clone_24]] == (2, 6)


def test_build_h_not_injective_at_n6():
    h = build_h(6)
    chords5 = gn_chords(5)
    clone_24 = len(chords5) + chords5.index((2, 4))
    clone_25 = len(chords5) + chords5.index((2, 5))
    assert h[clone_24] == h[clone_25]


@pytest.mark.parametrize("n", range(5, 16))
def test_build_h_is_homomorphism(n):
    verdict = verify_homomorphism(mycielski(gn(n - 1)), gn(n), build_h(n))
    assert verdict.valid
    assert verdict.violations == ()


def test_build_h_invalid():
    with pytest.raises(InvalidParametersError):
        build_h(4)


@pytest.mark.parametrize("n", [6, 8])
def test_base_restriction_composes_with_inclusion(n):
    # Restricted to base vertices, the map is the inclusion of gn(n-1)'s
    # chords into gn(n); composing with that inclusion stays edge-preserving.
    small = gn(n - 1)
    big = gn(n)
    assert verify_homomorphism(small, big, build_h(n)[: small.n]).valid


def test_violation_names_the_edge():
    g = build_graph(("a", "b"), [(0, 1)])
    verdict = verify_homomorphism(g, g, (0, 0))
    assert not verdict.valid
    assert verdict.violations == (Edge(0, 1),)


def test_lower_bound_chain_n6():
    report = lower_bound_chain(6)
    assert report.all_valid
    assert report.bound == 4
    assert chromatic_number(gn(6)).chi == 4
    text = report.render()
    assert "certified lower bound: chi(G_6) >= 4" in text
    assert "cited" in text


def test_lower_bound_chain_n9_matches_solver():
    report = lower_bound_chain(9)
    assert report.all_valid
    assert report.bound == 7
    assert chromatic_number(gn(9)).chi == 7


def test_lower_bound_chain_distinguishes_machine_checked_levels():
    report = lower_bound_chain(7)
    tagged = [l for l in report.render().splitlines() if "[machine-checked]" in l]
    assert tagged == [
        f"level {m}: map M(G_{m - 1}) -> G_{m} valid [machine-checked]"
        for m in (5, 6, 7)
    ]
    assert [l.n for l in report.levels] == [5, 6, 7]
    assert report.base_ok
    assert [k for k, _, _ in report.increment_checks] == [2, 3, 4, 5]


@pytest.mark.parametrize("n", range(5, 21))
def test_lower_bound_chain_render_is_pinned(n):
    assert sha256(lower_bound_chain(n).render()) == PINNED["lower_bound_chain"][str(n)]


def test_failing_level_stops_the_chain(monkeypatch, capsys):
    # A constant map sends every edge of M(G_4), a 5-cycle, to a non-edge.
    monkeypatch.setattr(
        homomorphism, "build_h", lambda n: (0,) * (2 * len(gn_chords(n - 1)) + 1)
    )
    report = lower_bound_chain(8)
    lines = report.render().splitlines()
    assert lines[0] == "level 5: map M(G_4) -> G_5 5 violations [machine-checked]"
    assert not any(line.startswith("level 6") for line in lines)
    assert not report.all_valid
    assert main(["verify", "homomorphism", "--n", "8"]) == EXIT_VERIFY_FAIL
    assert "5 violations" in capsys.readouterr().out


def test_lower_bound_chain_builds_each_gn_once(monkeypatch):
    calls = []

    def counting_gn(n):
        calls.append(n)
        return gn(n)

    monkeypatch.setattr(homomorphism, "gn", counting_gn)
    assert lower_bound_chain(10).all_valid
    assert sorted(calls) == list(range(4, 11))


@pytest.mark.parametrize("failure", ["level", "base"])
def test_failed_chain_claims_no_bound(monkeypatch, failure):
    if failure == "level":
        monkeypatch.setattr(
            homomorphism, "build_h", lambda n: (0,) * (2 * len(gn_chords(n - 1)) + 1)
        )
    else:
        g5 = gn(5)

        def miscounting(g, cfg=None):
            res = chromatic_number(g, cfg)
            return dataclasses.replace(res, chi=res.chi + 1) if g == g5 else res

        monkeypatch.setattr(homomorphism, "chromatic_number", miscounting)
    report = lower_bound_chain(8)
    lines = report.render().splitlines()
    assert not report.all_valid
    assert lines[-1] == "no certified lower bound: a check above failed"
    assert not any(line.startswith("certified") for line in lines)
    if failure == "base":
        assert "base case: chi(G_5) = 4 [MISMATCH, solver]" in lines
