"""Chord-pair census and the edge-count ratio.

Counts every unordered pair of distinct chords of the n-cycle by class.
Crossing plus transverse pairs are exactly the edges of ``gn(n)``; all four
disjoint classes together are the edges of ``schrijver(n, 2)``, so the ratio
of the two censuses is the exact edge ratio of the two graphs.

Each class count is a binomial in n (see ``count_pairs``), so the census is
O(1) integer arithmetic at every n, with no chord list and no pair walked.
The tests keep two independent counts as its oracles: the chord-by-chord
interval count and the enumeration of all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .families import _size, gn_chords


@dataclass(frozen=True)
class PairCounts:
    """Census of unordered pairs of distinct chords, by disjoint class."""

    n: int
    crossing: int
    transverse: int
    lateral: int
    nested_through_1: int
    intersecting: int

    @property
    def gn_edges(self) -> int:
        return self.crossing + self.transverse

    @property
    def sg_edges(self) -> int:
        """Disjoint pairs of stable chords = edges of schrijver(n, 2)."""
        return self.crossing + self.transverse + self.lateral + self.nested_through_1

    @property
    def total_pairs(self) -> int:
        return self.sg_edges + self.intersecting

    def ratio(self) -> Fraction:
        return Fraction(self.gn_edges, self.sg_edges)

    def row(self) -> str:
        """Machine-readable census row."""
        r = self.ratio()
        return (
            f"{self.n} {self.crossing} {self.transverse} {self.lateral} "
            f"{self.nested_through_1} {r.numerator} {r.denominator}"
        )


def chord_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of all chords of the n-cycle, in vertex (lexicographic)
    order: the two columns of ``gn_chords(n)``, as int64 arrays."""
    lo, hi = np.array(gn_chords(n), dtype=np.int64).T
    return lo, hi


def count_pairs(n: int) -> PairCounts:
    """Exact pair census, in closed form.

    Write a disjoint pair as chords (a, b) and (c, d) with a < c.  Each
    class is a pattern of endpoints on the line 1..n, with some gaps widened
    to 2 (the endpoints of a chord are not consecutive) and some endpoints
    kept off 1 or n (no chord is (1, n)).  Taking one from each widened gap
    and dropping the excluded points leaves j free points out of n - g:
    - crossing, a < c < b < d: any 4 points, C(n, 4);
    - transverse, 1 < a < c < d < b with d >= c+2: C(n-2, 4), which Pascal's
      rule turns into C(n,4) - C(n-1,3) - C(n-3,2) - C(n-3,3);
    - lateral, a < b < c < d with b >= a+2 and d >= c+2: C(n-2, 4);
    - nested-through-1, a = 1 < c < d < b < n with d >= c+2: C(n-3, 3);
    - intersecting: the shared endpoint v, then 2 of the n-3 points that are
      neither v nor next to it on the cycle: n * C(n-3, 2).

    The proof for every n does not rest on that algebra.  Each true class
    count counts patterns of at most 4 endpoints with fixed gaps, so it is a
    sum of binomials C(n-g, j) with j <= 4 and, for n >= 4, n >= g.  Each is
    then a polynomial of degree <= 4 in n, as is each formula here, and two
    such polynomials that agree at 5 values of n are equal.  The tests
    compare every class with an independent enumeration of all pairs at
    n = 4..60, which proves each identity for all n >= 4.  The limit 2/3 of
    ``ratio`` follows from the leading terms: ``gn_edges`` is 2*C(n,4) and
    ``sg_edges`` 3*C(n,4) up to terms of degree 3.
    """
    n = _size(n, 4)
    counts = PairCounts(
        n,
        crossing=comb(n, 4),
        transverse=comb(n - 2, 4),
        lateral=comb(n - 2, 4),
        nested_through_1=comb(n - 3, 3),
        intersecting=n * comb(n - 3, 2),
    )
    m = n * (n - 3) // 2
    if counts.total_pairs != comb(m, 2):
        raise AssertionError(
            f"census lost pairs at n={n}: {counts.total_pairs} != C({m},2)"
        )
    return counts


def edge_ratio(n: int) -> Fraction:
    """Exact |E(gn(n))| / |E(schrijver(n,2))| as a reduced rational."""
    return count_pairs(_size(n, 5)).ratio()
