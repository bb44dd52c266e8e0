"""Graph family generators.

Ground set is [n] = {1, .., n}.  A k-subset is *stable* when it contains no
two cyclically consecutive elements (1 and n count as consecutive).  Stable
2-subsets are called chords: {a, b} with a < b is drawn as a straight segment
between points a and b of a circle.

Families built here:

* ``kneser(n, k)``    -- all k-subsets, edges join disjoint ones;
* ``schrijver(n, k)`` -- induced on the stable k-subsets;
* ``gn(n)``           -- on stable 2-subsets, keeping only the crossing and
                         transverse disjoint pairs (a spanning subgraph of
                         ``schrijver(n, 2)``);
* ``mycielski(g)``, ``mycielski_iter(k)`` -- the classical clone-plus-apex
                         construction and its iterates starting from K_2.

``stable_subsets`` is the one enumeration of stable subsets (``gn_chords``
is its k = 2 list), and ``is_stable_pair`` states the chord rule once, for
``validate_chord`` and the certificate code.  ``edge_pattern`` states the
edge rule of ``gn`` once, for ``gn``, ``classify_pair`` and the
certificate code.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from operator import index

import numpy as np

from .graph import Graph, build_graph, pack

Chord = tuple[int, int]


class InvalidParametersError(ValueError):
    """Family parameters outside the defined range (e.g. n < 2k)."""


def _size(n: int, least: int, name: str = "n", need: str | None = None) -> int:
    """n, the parameter ``name``, as an int of at least ``least``; ``need``
    replaces the message for a smaller one."""
    try:
        n = index(n)
    except TypeError:
        raise InvalidParametersError(
            f"{name} must be an integer, got {name}={n!r}"
        ) from None
    if n < least:
        raise InvalidParametersError(need or f"need {name} >= {least}, got {name}={n}")
    return n


def _subset_sizes(n: int, k: int) -> tuple[int, int]:
    """n and k as ints, checked against n >= 2k >= 2."""
    need = f"need n >= 2k >= 2, got n={n}, k={k}"
    k = _size(k, 1, "k", need)
    return _size(n, 2 * k, need=need), k


class PairClass(Enum):
    CROSSING = "crossing"
    TRANSVERSE = "transverse"
    LATERAL = "lateral"
    NESTED_THROUGH_1 = "nested-through-1"
    INTERSECTING = "intersecting"


def is_stable_pair(a, b, n):
    """Whether {a, b} is a chord of the n-cycle: 1 <= a, b-a >= 2, b <= n and
    not {1, n}.  A bool on ints, a boolean array on numpy arrays."""
    return (1 <= a) & (b - a >= 2) & (b <= n) & ((a > 1) | (b < n))


def validate_chord(p: Chord, n: int) -> Chord:
    a, b = p
    if not is_stable_pair(a, b, n):
        raise InvalidParametersError(f"{p} is not a stable 2-subset of [{n}]")
    return a, b


def chord_label(elems: tuple[int, ...]) -> str:
    """Label for a chord, or any increasing tuple of elements: '26' or '135'
    when every element is a single digit, '2-13' otherwise."""
    if len(elems) != 2:
        return ("" if elems[-1] < 10 else "-").join(map(str, elems))
    a, b = elems  # a chord: one f-string, about half the time of the join
    return f"{a}-{b}" if b > 9 else f"{a}{b}"


def parse_chord(text: str, n: int) -> Chord:
    """Inverse of chord_label; also accepts 'a-b' for single-digit chords."""
    text = text.strip()
    if "-" in text:
        left, _, right = text.partition("-")
        p = (int(left), int(right))
    elif len(text) == 2 and text.isdigit():
        p = (int(text[0]), int(text[1]))
    else:
        raise InvalidParametersError(f"cannot parse chord {text!r}")
    return validate_chord(p, n)


def stable_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All stable k-subsets of [n] in lexicographic order.

    Adding i to the i-th element (from 0) of each k-subset of [n-k+1] gives
    every k-subset of [n] with gaps >= 2 exactly once (subtracting i undoes
    it), in lexicographic order; the stable ones are those without both 1
    and n.  The shift runs a column at a time, so that the loop over the
    subsets stays in C.
    """
    n, k = _subset_sizes(n, k)
    columns = zip(*combinations(range(1, n - k + 2), k))
    shifted = zip(*(map(i.__add__, col) for i, col in enumerate(columns)))
    return [s for s in shifted if s[0] > 1 or s[-1] < n]


def edge_pattern(a, b, c, d):
    """The masks (crossing, transverse) of chords (a, b) and (c, d), a <= c:
    crossing is a < c < b < d, transverse 1 < a < c < d < b, and these two
    are the edges of gn(n).  On ints they are bools; on numpy arrays that
    broadcast together, boolean arrays.
    """
    crossing = (a < c) & (c < b) & (b < d)
    transverse = (a > 1) & (a < c) & (d < b)
    return crossing, transverse


def classify_pair(p: Chord, q: Chord, n: int) -> PairClass:
    """Classify an unordered pair of distinct chords of the n-cycle.

    Chords sharing an endpoint intersect; a disjoint pair is crossing or
    transverse by ``edge_pattern``, and otherwise lateral or nested through 1.
    """
    p, q = validate_chord(p, n), validate_chord(q, n)
    if p == q:
        raise InvalidParametersError("pair classification needs two distinct chords")
    if set(p) & set(q):
        return PairClass.INTERSECTING
    (a, b), (c, d) = sorted((p, q))
    crossing, transverse = edge_pattern(a, b, c, d)
    if crossing:
        return PairClass.CROSSING
    if transverse:
        return PairClass.TRANSVERSE
    return PairClass.LATERAL if b < c else PairClass.NESTED_THROUGH_1


def _disjointness_graph(n: int, verts: list[tuple[int, ...]]) -> Graph:
    """Subsets of [n] as vertices, in the given order; edges join disjoint ones.

    Row i of the membership matrix marks the elements of subset i, so its
    boolean product with the transpose marks the intersecting pairs.
    """
    member = np.zeros((len(verts), n + 1), dtype=bool)
    member[np.arange(len(verts))[:, None], verts] = True
    disjoint = ~(member @ member.T)
    return Graph(tuple(chord_label(v) for v in verts), pack(disjoint), n)


def kneser(n: int, k: int) -> Graph:
    """All k-subsets of [n]; edges join disjoint subsets."""
    n, k = _subset_sizes(n, k)
    return _disjointness_graph(n, list(combinations(range(1, n + 1), k)))


def schrijver(n: int, k: int) -> Graph:
    """Induced subgraph of kneser(n, k) on the stable k-subsets."""
    return _disjointness_graph(n, stable_subsets(n, k))


# Chord lists are kept for a few n only: an edge sweep needs one n, the
# homomorphism chain two consecutive ones, and n comes from user input.
_CHORD_CACHE_SIZE = 4


@lru_cache(maxsize=_CHORD_CACHE_SIZE)
def gn_chords(n: int) -> tuple[Chord, ...]:
    """Vertex list of gn(n): stable 2-subsets in lexicographic order.

    This order fixes the vertex ids of gn(n) for every module; the tuple is
    shared by all callers while its n stays in the cache.
    """
    return tuple(stable_subsets(_size(n, 4), 2))


@lru_cache(maxsize=_CHORD_CACHE_SIZE)
def chord_base(n: int) -> tuple[int, ...]:
    """Closed-form chord ids of gn(n): chord (s, t) has id ``base[s] + t``.

    The ids follow ``gn_chords(n)``.  The chords before (s, s+2) are the
    n-1-r chords (r, .) for each r < s, less (1, n), so
    ``base[s] = (s-1)(n-1) - s(s-1)/2 - [s > 1] - s - 2``.  Entry 0 is
    unused; no chord starts at n-1 or n.
    """
    n = _size(n, 4)
    return (0, *((s - 1) * (n - 1) - s * (s - 1) // 2 - (s > 1) - s - 2
                 for s in range(1, n - 1)))


def _upper_adjacency(chords: tuple[Chord, ...]) -> np.ndarray:
    """The upper triangle of gn(n)'s adjacency, for ``chords = gn_chords(n)``,
    as a V x V boolean matrix; ``upper |= upper.T`` mirrors it in place.

    ``edge_pattern`` is broadcast over all pairs, row chord (a, b) against
    column chord (c, d).  Chords are in lexicographic order, so a < c holds
    only above the diagonal, and the row-major nonzeros are the edges in
    ``Graph.edges()`` order.
    """
    a, b = np.array(chords).T
    upper, transverse = edge_pattern(a[:, None], b[:, None], a, b)
    upper |= transverse
    return upper


def gn(n: int) -> Graph:
    """Spanning subgraph of schrijver(n, 2) on crossing and transverse pairs.

    Its rows are the rows of the adjacency matrix, packed.
    """
    chords = gn_chords(n)
    adj = _upper_adjacency(chords)
    adj |= adj.T
    return Graph(tuple(chord_label(p) for p in chords), pack(adj), n)


def mycielski(g: Graph) -> Graph:
    """Clone-plus-apex expansion of g, built from g's adjacency rows.

    Layout contract relied on by the homomorphism module: vertex i of g keeps
    id i, its clone is id n+i, and the apex is id 2n.  Base vertex u is
    joined to g's neighbours of u and to their clones (its row, shifted up
    by n), clone u to g's neighbours of u and to the apex.  Clone labels
    append primes (one for unprimed inputs, enough to stay unique under
    iteration); the apex label is the shortest run of '*' not already taken.
    """
    v = g.n
    apex = 2 * v
    primes = 1 + max((len(l) - len(l.rstrip("'")) for l in g.labels), default=0)
    labels = [*g.labels, *(lbl + "'" * primes for lbl in g.labels)]
    star = "*"
    while star in labels:
        star += "*"
    base = [r | r << v for r in g.rows]
    clones = [r | 1 << apex for r in g.rows]
    return Graph((*labels, star), (*base, *clones, (1 << apex) - (1 << v)))


def complete_pair() -> Graph:
    """K_2 with labels '1' and '2', the seed of the mycielski iterates."""
    return build_graph(("1", "2"), [(0, 1)])


def mycielski_iter(k: int) -> Graph:
    """Apply the clone-plus-apex construction k-2 times starting from K_2."""
    k = _size(k, 2, "k")
    g = complete_pair()
    for _ in range(k - 2):
        g = mycielski(g)
    return g
