import pytest

from chordcrit.families import (
    InvalidParametersError,
    PairClass,
    classify_pair,
    gn,
    gn_chords,
    is_stable_pair,
    mycielski,
)
from chordcrit.graph import build_graph
from chordcrit.homomorphism import (
    MycielskiVertex,
    VertexMap,
    build_h,
    h_image,
    lower_bound_chain,
    mycielski_vertices,
    verify_homomorphism,
)
from chordcrit.solver import chromatic_number

from oracles import is_cycle


def test_h_image_defining_values():
    assert h_image(MycielskiVertex("base", (2, 4)), 6) == (2, 4)
    assert h_image(MycielskiVertex("clone", (1, 3)), 6) == (3, 6)
    assert h_image(MycielskiVertex("clone", (2, 4)), 6) == (2, 6)
    assert h_image(MycielskiVertex("star", None), 6) == (1, 5)


def test_h_image_validates():
    with pytest.raises(InvalidParametersError):
        h_image(MycielskiVertex("base", (2, 4)), 4)
    with pytest.raises(InvalidParametersError):
        h_image(MycielskiVertex("base", None), 6)
    with pytest.raises(InvalidParametersError):
        h_image(MycielskiVertex("apex", None), 6)
    with pytest.raises(InvalidParametersError):
        h_image(MycielskiVertex("base", (1, 5)), 6)  # not a chord of [5]


@pytest.mark.parametrize("n", range(5, 16))
def test_h_images_are_chords(n):
    for v in mycielski_vertices(n):
        a, b = h_image(v, n)
        assert is_stable_pair(a, b, n)


@pytest.mark.parametrize("n", range(5, 16))
def test_clone_images_contain_n_and_pair_with_star_as_crossing(n):
    star_img = h_image(MycielskiVertex("star", None), n)
    assert star_img == (1, n - 1)
    for p in gn_chords(n - 1):
        img = h_image(MycielskiVertex("clone", p), n)
        assert n in img
        assert classify_pair(img, star_img, n) is PairClass.CROSSING


def test_verify_homomorphism_identity_and_constant():
    g = gn(6)
    identity = VertexMap("G_6", "G_6", tuple(range(g.n)))
    assert verify_homomorphism(g, g, identity).valid
    constant = VertexMap("G_6", "G_6", tuple(0 for _ in range(g.n)))
    verdict = verify_homomorphism(g, g, constant)
    assert not verdict.valid
    assert len(verdict.violations) == g.edge_count


def test_verify_homomorphism_requires_total_map():
    g = gn(5)
    with pytest.raises(InvalidParametersError):
        verify_homomorphism(g, g, VertexMap("G_5", "G_5", (0, 1)))


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
    vm = build_h(6)
    chords5 = gn_chords(5)
    chords6 = gn_chords(6)
    base_13 = chords5.index((1, 3))
    clone_24 = len(chords5) + chords5.index((2, 4))
    assert chords6[vm.mapping[base_13]] == (1, 3)
    assert chords6[vm.mapping[clone_24]] == (2, 6)


def test_build_h_not_injective_at_n6():
    vm = build_h(6)
    chords5 = gn_chords(5)
    clone_24 = len(chords5) + chords5.index((2, 4))
    clone_25 = len(chords5) + chords5.index((2, 5))
    assert vm.mapping[clone_24] == vm.mapping[clone_25]


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
    vm = build_h(n)
    small = gn(n - 1)
    big = gn(n)
    base_map = VertexMap(f"G_{n-1}", f"G_{n}", vm.mapping[: small.n])
    assert verify_homomorphism(small, big, base_map).valid


def test_violation_rendering_names_labels():
    g = build_graph(("a", "b"), [(0, 1)])
    verdict = verify_homomorphism(g, g, VertexMap("A", "A", (0, 0)))
    assert "(a,b) -> (a,a)" in verdict.render(g, g)


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
    assert all(l.method == "machine-checked" for l in report.levels)
    assert [l.n for l in report.levels] == [5, 6, 7]
    assert report.base_ok
    assert [k for k, _, _ in report.increment_checks] == [2, 3, 4, 5]
