from fractions import Fraction
from math import comb

import numpy as np
import pytest

from chordcrit.families import InvalidParametersError, edge_pattern, gn_chords
from chordcrit.pairs import chord_table, count_pairs, edge_ratio

from oracles import (
    brute_census,
    brute_chords,
    brute_gn_edges,
    brute_sg2_edges,
    enumerate_census,
    interval_census,
)


def _census_dict(c):
    return {
        "crossing": c.crossing,
        "transverse": c.transverse,
        "lateral": c.lateral,
        "nested-through-1": c.nested_through_1,
        "intersecting": c.intersecting,
    }


def test_census_n5():
    c = count_pairs(5)
    assert (c.crossing, c.transverse, c.lateral, c.nested_through_1) == (5, 0, 0, 0)


def test_census_n6():
    c = count_pairs(6)
    assert (c.crossing, c.transverse, c.lateral, c.nested_through_1) == (15, 1, 1, 1)


@pytest.mark.parametrize("n", range(4, 13))
def test_census_matches_enumeration_oracle(n):
    c = count_pairs(n)
    assert _census_dict(c) == brute_census(n)
    assert c.gn_edges == len(brute_gn_edges(n))
    assert c.sg_edges == brute_sg2_edges(n)


@pytest.mark.parametrize("n", range(4, 61))
def test_crossing_count_is_binomial(n):
    """The library's edge rule, over every pair of chords, makes C(n,4)
    crossing and C(n-2,4) transverse pairs, the closed forms the census
    states."""
    a, b = np.array(gn_chords(n)).T
    crossing, transverse = edge_pattern(a[:, None], b[:, None], a, b)
    assert crossing.sum() == comb(n, 4)
    assert transverse.sum() == comb(n - 2, 4)


@pytest.mark.parametrize("n", range(4, 61))
def test_census_matches_vectorized_enumerator(n):
    # Each class count is a polynomial of degree <= 4 in n (see count_pairs),
    # so agreement at these 57 values proves the closed forms for every n.
    expected = enumerate_census(n)
    assert _census_dict(count_pairs(n)) == expected
    assert interval_census(n) == expected


def test_chord_table_matches_oracle():
    for n in [*range(4, 81), 200]:
        lo, hi = chord_table(n)
        chords = np.array(brute_chords(n), dtype=np.int64)
        assert lo.dtype == hi.dtype == np.int64
        np.testing.assert_array_equal(lo, chords[:, 0], err_msg=str(n))
        np.testing.assert_array_equal(hi, chords[:, 1], err_msg=str(n))


def test_census_closed_form_identities():
    # Each identity follows from the class definitions.  The chord-by-chord
    # oracle is checked against them, not the library's census, which is
    # these formulas by construction.
    for n in range(4, 201):
        c = interval_census(n)
        assert c["crossing"] == comb(n, 4), n
        assert c["nested-through-1"] == comb(n - 3, 3), n
        assert c["lateral"] == comb(n - 2, 4), n
        assert c["intersecting"] == n * comb(n - 3, 2), n
        assert c["transverse"] == (
            comb(n, 4) - comb(n - 1, 3) - comb(n - 3, 2) - comb(n - 3, 3)
        ), n


def test_total_pair_count():
    c = count_pairs(10)
    m = 10 * 7 // 2
    assert c.total_pairs == comb(m, 2)


def test_edge_ratio_values():
    assert edge_ratio(5) == Fraction(1)
    assert edge_ratio(6) == Fraction(8, 9)


def test_edge_ratio_approaches_two_thirds_from_above():
    ratios = [edge_ratio(n) for n in (10, 20, 40, 80)]
    for r in ratios:
        assert r > Fraction(2, 3)
    deviations = [r - Fraction(2, 3) for r in ratios]
    assert deviations == sorted(deviations, reverse=True)


def test_invalid_parameters():
    with pytest.raises(InvalidParametersError):
        count_pairs(3)
    with pytest.raises(InvalidParametersError):
        chord_table(3)
    with pytest.raises(InvalidParametersError):
        edge_ratio(4)


@pytest.mark.parametrize("n", [6.0, "7"])
@pytest.mark.parametrize("f", [count_pairs, edge_ratio, chord_table])
def test_non_integral_n_is_a_parameter_error(f, n):
    with pytest.raises(InvalidParametersError):
        f(n)


def test_machine_row_format():
    row = count_pairs(6).row()
    assert row == "6 15 1 1 1 8 9"


def test_paircounts_asymptotic_slacks():
    # gn and schrijver edge counts are 2*C(n,4) - r and 3*C(n,4) - s with
    # r, s cubically bounded; fit the constant on mid-size n.
    for n in (20, 50, 100):
        c = count_pairs(n)
        r = 2 * comb(n, 4) - c.gn_edges
        s = 3 * comb(n, 4) - c.sg_edges
        assert 0 <= r <= 2 * n**3
        assert 0 <= s <= 2 * n**3
