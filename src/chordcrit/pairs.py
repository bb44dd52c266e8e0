"""Chord-pair census and the edge-count ratio.

Counts every unordered pair of distinct chords of the n-cycle by class.
Crossing plus transverse pairs are exactly the edges of ``gn(n)``; all four
disjoint classes together are the edges of ``schrijver(n, 2)``, so the ratio
of the two censuses is the exact edge ratio of the two graphs.

The census counts per chord instead of enumerating pairs: for a chord
(a, b), the partners that follow it in lexicographic order lie in intervals
of the cycle, so each class count is a product or a binomial of interval
lengths.  Summing these over the chord table is O(m) numpy work for the
m = n(n-3)/2 chords, where enumeration would walk C(m, 2) pairs (~1.9e8 at
n = 200).  The enumeration survives in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .families import InvalidParametersError


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
    """Endpoints of all chords of the n-cycle, in vertex (lexicographic) order.

    Chord (a, b) runs over a = 1..n-2 and b = a+2..last(a), where
    last(1) = n-1 (1 and n are adjacent) and last(a) = n otherwise; the
    arrays are built group by group of equal a, without listing tuples.
    """
    if n < 4:
        raise InvalidParametersError(f"need n >= 4, got n={n}")
    a = np.arange(1, n - 1, dtype=np.int64)
    last = np.full_like(a, n)
    last[0] = n - 1
    counts = last - a - 1
    lo = np.repeat(a, counts)
    starts = np.cumsum(counts) - counts
    # Position of each chord within its group of equal a.
    offset = np.arange(lo.shape[0], dtype=np.int64) - np.repeat(starts, counts)
    hi = lo + 2 + offset
    return lo, hi


def _nonadjacent_pairs(k: np.ndarray) -> np.ndarray:
    """Ways to pick 2 non-adjacent points out of k consecutive ones: C(k-1, 2)."""
    x = np.maximum(k - 1, 0)
    return x * (x - 1) // 2


def count_pairs(n: int) -> PairCounts:
    """Exact pair census, counted chord by chord over the chord table.

    Each pair is counted once, at its lexicographically smaller chord (a, b),
    whose later partners (c, d) have c > a, or c = a and d > b.  With
    ``inside = b-a-1`` points strictly between a and b and ``after = n-b``
    points after b:
    - crossing, a < c < b < d: inside * after;
    - nested, a < c < d < b: 2 non-adjacent points inside, nested-through-1
      when a = 1 and transverse otherwise;
    - lateral, b < c < d: 2 non-adjacent points after b;
    - intersecting: (a, d) with d > b, except (1, n); (b, d) with d >= b+2;
      and (c, b) with a < c <= b-2.
    """
    if n < 4:
        raise InvalidParametersError(f"need n >= 4, got n={n}")
    a, b = chord_table(n)
    inside = b - a - 1
    after = n - b
    through_1 = a == 1
    nested = _nonadjacent_pairs(inside)
    intersecting = (after - through_1) + np.maximum(after - 1, 0) + (inside - 1)
    counts = PairCounts(
        n,
        crossing=int((inside * after).sum()),
        transverse=int(nested[~through_1].sum()),
        lateral=int(_nonadjacent_pairs(after).sum()),
        nested_through_1=int(nested[through_1].sum()),
        intersecting=int(intersecting.sum()),
    )
    m = a.shape[0]
    if counts.total_pairs != comb(m, 2):
        raise AssertionError(
            f"census lost pairs at n={n}: {counts.total_pairs} != C({m},2)"
        )
    return counts


def edge_ratio(n: int) -> Fraction:
    """Exact |E(gn(n))| / |E(schrijver(n,2))| as a reduced rational."""
    if n < 5:
        raise InvalidParametersError(f"need n >= 5, got n={n}")
    return count_pairs(n).ratio()
