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
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator

from .graph import Graph, build_graph

Chord = tuple[int, int]


class InvalidParametersError(ValueError):
    """Family parameters outside the defined range (e.g. n < 2k)."""


class PairClass(Enum):
    CROSSING = "crossing"
    TRANSVERSE = "transverse"
    LATERAL = "lateral"
    NESTED_THROUGH_1 = "nested-through-1"
    INTERSECTING = "intersecting"


def is_stable_pair(a: int, b: int, n: int) -> bool:
    """True when {a, b} is a chord of the n-cycle: a < b, b-a >= 2, not {1, n}."""
    return 1 <= a < b <= n and b - a >= 2 and not (a == 1 and b == n)


def validate_chord(p: Chord, n: int) -> Chord:
    a, b = p
    if not is_stable_pair(a, b, n):
        raise InvalidParametersError(f"{p} is not a stable 2-subset of [{n}]")
    return a, b


def chord_label(p: Chord) -> str:
    """Label for a chord: '26' for single-digit endpoints, '2-13' otherwise."""
    a, b = p
    return f"{a}{b}" if b < 10 else f"{a}-{b}"


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


def subset_label(elems: tuple[int, ...]) -> str:
    if elems[-1] < 10:
        return "".join(str(e) for e in elems)
    return "-".join(str(e) for e in elems)


def stable_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All stable k-subsets of [n] in lexicographic order.

    Backtracking over increasing elements; the gap constraint (>= 2 between
    chosen elements, and between the first and last around the circle) is
    checked as each element is placed.
    """
    if k < 1 or n < 2 * k:
        raise InvalidParametersError(f"need n >= 2k >= 2, got n={n}, k={k}")
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        rest_after = k - len(chosen) - 1
        for x in range(start, n + 1):
            # Subsets starting at 1 must stop at n-1 (1 and n are consecutive
            # around the circle); each later element needs a gap of 2.
            first = chosen[0] if chosen else x
            last_limit = n - 1 if first == 1 else n
            if x + 2 * rest_after > last_limit:
                continue
            chosen.append(x)
            extend(x + 2)
            chosen.pop()

    extend(1)
    return out


def classify_pair(p: Chord, q: Chord, n: int) -> PairClass:
    """Classify an unordered pair of distinct chords of the n-cycle.

    After normalizing so the chord with the smaller first endpoint plays
    (a, b): crossing is a < c < b < d; a nested pattern a < c < d < b is
    transverse when a > 1 and nested-through-1 when a = 1; side-by-side
    chords a < b < c < d are lateral.  Chords sharing an endpoint intersect.
    """
    a1, b1 = validate_chord(p, n)
    a2, b2 = validate_chord(q, n)
    if (a1, b1) == (a2, b2):
        raise InvalidParametersError("pair classification needs two distinct chords")
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return PairClass.INTERSECTING
    if a1 < a2:
        a, b, c, d = a1, b1, a2, b2
    else:
        a, b, c, d = a2, b2, a1, b1
    if c > b:
        return PairClass.LATERAL
    if d > b:
        return PairClass.CROSSING
    if a == 1:
        return PairClass.NESTED_THROUGH_1
    return PairClass.TRANSVERSE


def _disjointness_graph(n: int, verts: list[tuple[int, ...]]) -> Graph:
    """Subsets of [n] as vertices, in the given order; edges join disjoint ones."""
    sets = [frozenset(v) for v in verts]
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not sets[i] & sets[j]
    ]
    return build_graph([subset_label(v) for v in verts], edges, n_hint=n)


def kneser(n: int, k: int) -> Graph:
    """All k-subsets of [n]; edges join disjoint subsets."""
    if k < 1 or n < 2 * k:
        raise InvalidParametersError(f"need n >= 2k >= 2, got n={n}, k={k}")
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
    if n < 4:
        raise InvalidParametersError(f"need n >= 4, got n={n}")
    return tuple(stable_subsets(n, 2))


@lru_cache(maxsize=_CHORD_CACHE_SIZE)
def chord_base(n: int) -> tuple[int, ...]:
    """Closed-form chord ids of gn(n): chord (s, t) has id ``base[s] + t``.

    The ids follow ``gn_chords(n)``.  The chords before (s, s+2) are the
    n-1-r chords (r, .) for each r < s, less (1, n), so
    ``base[s] = (s-1)(n-1) - s(s-1)/2 - [s > 1] - s - 2``.  Entry 0 is
    unused; no chord starts at n-1 or n.
    """
    if n < 4:
        raise InvalidParametersError(f"need n >= 4, got n={n}")
    return (0, *((s - 1) * (n - 1) - s * (s - 1) // 2 - (s > 1) - s - 2
                 for s in range(1, n - 1)))


def gn(n: int) -> Graph:
    """Spanning subgraph of schrijver(n, 2) on crossing and transverse pairs.

    Each chord's partners (c, d) lie in intervals of the cycle fixed by
    its endpoints.  For each c they form runs of consecutive chord ids, since
    (c, d) has id ``chord_base(n)[c] + d``, so each neighbour set is built
    once from its runs and no pair of chords is classified.  For chord
    (a, b):

    * c < a: crossing, a < d < b; and, when c > 1, transverse, b < d <= n;
    * a < c < b: crossing, b < d <= n; and, when a > 1, transverse,
      c+2 <= d < b.

    ``classify_pair`` stays the pairwise definition; the tests check that
    both give the same edges.
    """
    chords = gn_chords(n)
    base = chord_base(n)

    def runs(a: int, b: int) -> Iterator[range]:
        for c in range(1, a):
            yield range(base[c] + a + 1, base[c] + b)
            if c > 1:
                yield range(base[c] + b + 1, base[c] + n + 1)
        for c in range(a + 1, min(b, n - 1)):
            yield range(base[c] + b + 1, base[c] + n + 1)
            if a > 1:
                yield range(base[c] + c + 2, base[c] + b)

    adj = tuple(frozenset(chain.from_iterable(runs(a, b))) for a, b in chords)
    return Graph(tuple(chord_label(p) for p in chords), adj, n)


def _star_label(taken: set[str]) -> str:
    lbl = "*"
    while lbl in taken:
        lbl += "*"
    return lbl


def _trailing_primes(lbl: str) -> int:
    t = 0
    for ch in reversed(lbl):
        if ch != "'":
            break
        t += 1
    return t


def mycielski(g: Graph) -> Graph:
    """Clone-plus-apex expansion of g, built from g's adjacency sets.

    Layout contract relied on by the homomorphism module: vertex i of g keeps
    id i, its clone is id n+i, and the apex is id 2n.  Base vertex u is
    joined to g's neighbours of u and to their clones, clone u to g's
    neighbours of u and to the apex.  Clone labels append primes (one for
    unprimed inputs, enough to stay unique under iteration); the apex label
    is the shortest run of '*' not already taken.
    """
    v = g.n
    apex = 2 * v
    bump = "'" * (1 + max((_trailing_primes(l) for l in g.labels), default=0))
    labels = list(g.labels)
    labels += [lbl + bump for lbl in g.labels]
    labels.append(_star_label(set(labels)))
    base = [a | {v + w for w in a} for a in g.adj]
    clones = [a | {apex} for a in g.adj]
    return Graph(tuple(labels), (*base, *clones, frozenset(range(v, apex))))


def complete_pair() -> Graph:
    """K_2 with labels '1' and '2', the seed of the mycielski iterates."""
    return build_graph(("1", "2"), [(0, 1)])


def mycielski_iter(k: int) -> Graph:
    """Apply the clone-plus-apex construction k-2 times starting from K_2."""
    if k < 2:
        raise InvalidParametersError(f"need k >= 2, got k={k}")
    g = complete_pair()
    for _ in range(k - 2):
        g = mycielski(g)
    return g
