"""Brute-force oracles, written independently of the library code paths.

Everything here works by exhaustive enumeration directly from definitions;
the library must agree with these on small instances.
"""

import time
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from chordcrit import criticality
from chordcrit.criticality import (
    CertificateColoring,
    CriticalCase,
    EdgeCertRow,
)
from chordcrit.families import chord_label, gn, gn_chords
from chordcrit.graph import Edge, Graph, build_graph, edge
from chordcrit.solver import ColorDecision
from helpers import gn_edge_arrays


def brute_stable_ksubsets(n: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for sub in combinations(range(1, n + 1), k):
        if any(sub[i + 1] - sub[i] < 2 for i in range(k - 1)):
            continue
        if sub[0] == 1 and sub[-1] == n:
            continue
        out.append(sub)
    return out


def brute_chords(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a, b in brute_stable_ksubsets(n, 2)]


def brute_pair_class(p: tuple[int, int], q: tuple[int, int]) -> str:
    if set(p) & set(q):
        return "intersecting"
    (a, b), (c, d) = sorted([p, q])
    if a < c < b < d:
        return "crossing"
    if a < c < d < b:
        return "nested-through-1" if a == 1 else "transverse"
    return "lateral"


def brute_gn_edges(n: int) -> set[tuple[int, int]]:
    """Edges of gn(n) as index pairs into the lexicographic chord list."""
    chords = brute_chords(n)
    edges = set()
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            if brute_pair_class(chords[i], chords[j]) in ("crossing", "transverse"):
                edges.add((i, j))
    return edges


def brute_sg2_edges(n: int) -> int:
    chords = brute_chords(n)
    return sum(
        1
        for i in range(len(chords))
        for j in range(i + 1, len(chords))
        if not set(chords[i]) & set(chords[j])
    )


def brute_census(n: int) -> dict[str, int]:
    chords = brute_chords(n)
    counts = {
        "crossing": 0,
        "transverse": 0,
        "lateral": 0,
        "nested-through-1": 0,
        "intersecting": 0,
    }
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            counts[brute_pair_class(chords[i], chords[j])] += 1
    return counts


def enumerate_census(n: int) -> dict[str, int]:
    """The census of ``brute_census``, enumerated over all pairs in numpy.

    Row blocks of the chord list are broadcast against the whole list, so
    every pair i < j is classified once, as in ``brute_pair_class``.
    """
    chords = brute_chords(n)
    lo = np.array([p[0] for p in chords], dtype=np.int64)
    hi = np.array([p[1] for p in chords], dtype=np.int64)
    m = len(chords)
    idx = np.arange(m)
    chunk = 256
    counts = dict.fromkeys(
        ("crossing", "transverse", "lateral", "nested-through-1", "intersecting"), 0
    )
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        a1, b1 = lo[start:stop, None], hi[start:stop, None]
        a2, b2 = lo[None, :], hi[None, :]
        upper = idx[None, :] > idx[start:stop, None]
        shared = (a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2)
        disjoint = upper & ~shared
        swap = a2 < a1
        a = np.where(swap, a2, a1)
        b = np.where(swap, b2, b1)
        c = np.where(swap, a1, a2)
        d = np.where(swap, b1, b2)
        nested = disjoint & (c < b) & (d < b)
        counts["intersecting"] += int(np.count_nonzero(upper & shared))
        counts["crossing"] += int(np.count_nonzero(disjoint & (c < b) & (d > b)))
        counts["transverse"] += int(np.count_nonzero(nested & (a > 1)))
        counts["lateral"] += int(np.count_nonzero(disjoint & (c > b)))
        counts["nested-through-1"] += int(np.count_nonzero(nested & (a == 1)))
    return counts


def nonadjacent_pairs(k: np.ndarray) -> np.ndarray:
    """Ways to pick 2 non-adjacent points out of k consecutive ones: C(k-1, 2)."""
    x = np.maximum(k - 1, 0)
    return x * (x - 1) // 2


def interval_census(n: int) -> dict[str, int]:
    """The census of ``brute_census``, counted chord by chord.

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
    O(n^2) numpy work over the chords, built here as the pairs b >= a+2 of
    1..n other than (1, n), so that the oracle for large n shares no code
    with the library.
    """
    a, b = np.triu_indices(n, 2)
    keep = ~((a == 0) & (b == n - 1))
    a, b = a[keep] + 1, b[keep] + 1
    inside = b - a - 1
    after = n - b
    through_1 = a == 1
    nested = nonadjacent_pairs(inside)
    intersecting = (after - through_1) + np.maximum(after - 1, 0) + (inside - 1)
    return {
        "crossing": int((inside * after).sum()),
        "transverse": int(nested[~through_1].sum()),
        "lateral": int(nonadjacent_pairs(after).sum()),
        "nested-through-1": int(nested[through_1].sum()),
        "intersecting": int(intersecting.sum()),
    }


def brute_proper(g: Graph, coloring: dict[int, int]) -> bool:
    """Direct double loop: total and no monochromatic edge."""
    for v in range(g.n):
        if v not in coloring:
            return False
    for u in range(g.n):
        for v in g.neighbors(u):
            if coloring[u] == coloring[v]:
                return False
    return True


def full_scan_rows(n: int) -> list[EdgeCertRow]:
    """The rows of ``verify_edge_criticality(n)``, each certificate checked
    by scanning every edge of gn(n) in numpy.

    The certificate comes from ``criticality.critical_coloring`` as bound at
    call time, so a test that patches it checks the patched certificates.
    """
    n_chords, eu, ev = gn_edge_arrays(n)
    chords = brute_chords(n)
    rows = []
    for e_u, e_v in zip(eu.tolist(), ev.tolist()):
        p, q = chords[e_u], chords[e_v]
        label = ",".join(chord_label(t) for t in sorted((p, q)))
        cert = criticality.critical_coloring(n, p, q)
        total = len(cert.assignment) == n_chords
        if total:
            colors = np.empty(n_chords, dtype=np.int64)
            for v, c in cert.assignment.items():
                colors[v] = c
            mono = colors[eu] == colors[ev]
            deleted = (eu == e_u) & (ev == e_v)
            proper = bool(not np.any(mono & ~deleted))
            endpoints_mono = bool(np.all(mono[deleted]))
        else:
            proper = False
            endpoints_mono = False
        colors_used = len(set(cert.assignment.values()))
        ok = total and proper and endpoints_mono and colors_used <= n - 3
        rows.append(EdgeCertRow(
            edge=label,
            case=brute_case(p, q).value,
            colors_used=colors_used,
            proper=proper,
            endpoints_monochromatic=endpoints_mono,
            total=total,
            verdict="pass" if ok else "fail",
        ))
    return rows


def per_edge_rows(n: int) -> list[EdgeCertRow]:
    """The rows of ``verify_edge_criticality(n)``, each certificate checked
    on its own by one walk over its overrides, reading gn(n)'s adjacency
    sets.

    Edges of gn(n) join disjoint chords, so a class whose chords all
    contain its colour is independent: only a fresh class (colour > n) is
    checked inside itself, where it may hold the deleted edge alone, and
    only an override of colour <= n that its chord lacks is checked against
    its neighbours.  The certificate comes from ``scalar_certificate``.
    """
    g = gn(n)
    chords = gn_chords(n)
    return [_walk_rows(n, g, chords, e) for e in g.edges()]


def brute_case(p: tuple[int, int], q: tuple[int, int]) -> CriticalCase:
    """The certificate case of the edge {p, q}, from ``brute_pair_class``:
    a crossing pair is crossing-with-1 when it has element 1, and a
    transverse pair is transverse.  Raises ValueError for a non-edge."""
    cls = brute_pair_class(p, q)
    if cls == "crossing":
        if 1 in p + q:
            return CriticalCase.CROSSING_WITH_1
        return CriticalCase.CROSSING_WITHOUT_1
    if cls == "transverse":
        return CriticalCase.TRANSVERSE
    raise ValueError(f"chords {p} and {q} are {cls}, not an edge")


def scalar_certificate(n: int, p, q) -> CertificateColoring:
    """The certificate of the edge {p, q} of gn(n), built for that edge
    alone from its case's anchor set A and fresh classes.

    The case comes from ``brute_case``.  A is every element the case
    names, in increasing order: a < c < b < d in the crossing cases, after
    1 when a > 1, and 1 < a < c < x < d < b with x = c+1 in the transverse
    one.  Each pair below is written smaller element first; the stable
    ones, two apart or more and not (1, n), get the fresh colours n+1,
    n+2, ... class by class.
    """
    case = brute_case(p, q)
    (a, b), (c, d) = sorted((p, q))
    if case is CriticalCase.CROSSING_WITH_1:
        A = (a, c, b, d)
        classes = [list(combinations(A, 2))]
    elif case is CriticalCase.CROSSING_WITHOUT_1:
        A = (1, a, c, b, d)
        classes = [
            [(1, a), (1, b), (1, c), (1, d), (c, b), (b, d)],
            [(a, b), (a, c), (a, d), (c, d)],
        ]
    else:
        x = c + 1
        A = (1, a, c, x, d, b)
        classes = [
            [(1, a), (1, x), (1, d), (a, x), (x, d)],
            [(1, b), (1, c), (c, b), (x, b), (c, x)],
            [(a, b), (a, c), (a, d), (c, d), (d, b)],
        ]
    ids = _chord_ids(n)
    overrides = {
        ids[(s, t)]: color
        for color, pairs in enumerate(classes, start=n + 1)
        for s, t in pairs
        if t - s > 1 and (s > 1 or t < n)
    }
    return CertificateColoring(n, case, A, overrides)


@lru_cache(maxsize=None)
def _chord_ids(n: int) -> dict[tuple[int, int], int]:
    return {t: i for i, t in enumerate(brute_chords(n))}


def _walk_rows(n: int, g: Graph, chords, e: Edge) -> EdgeCertRow:
    cert = scalar_certificate(n, chords[e.u], chords[e.v])
    A = set(cert.A)
    overrides = cert.overrides

    def min_color(v):
        x, y = chords[v]
        if x not in A:
            return x
        return y if y not in A else None

    def color(v):
        c = overrides.get(v)
        return c if c is not None else min_color(v)

    inside = 0
    fresh: dict[int, list[int]] = {}
    displaced: dict[int, int] = {}
    low: list[tuple[int, int]] = []
    for v, c in overrides.items():
        m = min_color(v)
        if m is None:
            inside += 1
        else:
            displaced[m] = displaced.get(m, 0) + 1
        if c <= n:
            low.append((v, c))
        else:
            fresh.setdefault(c, []).append(v)
    proper = True
    for v, c in low:
        if c not in chords[v]:
            for w in g.neighbors(v):
                if color(w) == c and edge(v, w) != e:
                    proper = False
    for members in fresh.values():
        cls = set(members)
        # Each edge inside the class is counted from both ends.
        inner = sum(len(cls.intersection(g.neighbors(v))) for v in members)
        if inner > 2 * (e.u in cls and e.v in cls):
            proper = False
    elems = cert.A
    stable_inside = (
        len(elems) * (len(elems) - 1) // 2
        - [y - x for x, y in zip(elems, elems[1:])].count(1)
        - (1 in A and n in A)
    )
    total = inside == stable_inside
    proper = proper and total
    endpoints_mono = total and color(e.u) == color(e.v)
    # Element e outside A colours nothing when every chord whose min-based
    # colour it is, (e, y >= e+2) and (x in A, x <= e-2) but (1, n), is
    # overridden; e <= n-2 always has (e, e+2), so only n-1, n and the
    # displaced colours can.
    unused = set()
    for x in (n - 1, n, *displaced):
        later = max((n - 1 if x == 1 else n) - x - 1, 0)
        earlier = bisect_right(elems, x - 2) - (x == n and 1 in A)
        if x not in A and later + earlier == displaced.get(x, 0):
            unused.add(x)
    extra = {c for _, c in low if c < 1 or c in A or c in unused}
    colors_used = n - len(A) - len(unused) + len(fresh) + len(extra)
    ok = total and proper and endpoints_mono and colors_used <= n - 3
    return EdgeCertRow(
        edge=f"{g.labels[e.u]},{g.labels[e.v]}",
        case=cert.case.value,
        colors_used=colors_used,
        proper=proper,
        endpoints_monochromatic=endpoints_mono,
        total=total,
        verdict="pass" if ok else "fail",
    )


def edge_list_mycielski(g: Graph) -> Graph:
    """The clone-plus-apex expansion of g, built from an edge list.

    Vertex i keeps id i, its clone is i+n and the apex 2n.  Every edge u-w
    of g gives u-w, u-clone(w) and w-clone(u); every clone is joined to the
    apex.  Clone labels append one prime more than any label of g ends in;
    the apex label is the shortest run of '*' not already taken.
    """
    v = g.n
    primes = max((len(lbl) - len(lbl.rstrip("'")) for lbl in g.labels), default=0)
    labels = list(g.labels) + [lbl + "'" * (primes + 1) for lbl in g.labels]
    apex = "*"
    while apex in labels:
        apex += "*"
    edges = []
    for e in g.edges():
        edges += [(e.u, e.v), (e.u, v + e.v), (e.v, v + e.u)]
    edges += [(v + u, 2 * v) for u in range(v)]
    return build_graph(labels + [apex], edges)


def set_mycielski(g: Graph) -> tuple[int, ...]:
    """The rows of the clone-plus-apex expansion of g, built from neighbour
    sets: base u gets N(u) and the clones of N(u), clone u gets N(u) and the
    apex, and the apex gets every clone."""
    v = g.n
    apex = 2 * v
    adj = [frozenset(g.neighbors(u)) for u in range(v)]
    base = [a | {v + w for w in a} for a in adj]
    clones = [a | {apex} for a in adj]
    sets = [*base, *clones, frozenset(range(v, apex))]
    return tuple(sum(1 << w for w in a) for a in sets)


def brute_hom_violations(G: Graph, H: Graph, mapping) -> tuple[Edge, ...]:
    """Edges of G whose images are not adjacent in H, in ``G.edges()`` order."""
    return tuple(e for e in G.edges() if not H.has_edge(mapping[e.u], mapping[e.v]))


def max_key_clique(g: Graph, adjm: list[int], order) -> list[int]:
    """The greedy clique on ``adjm = solver._masks(g, order)``, picked by a
    max over every position with the degree read from g at each key.

    Each step takes the candidate with the most neighbours among the
    candidates, then the highest degree, then the lowest vertex id.
    """
    clique = []
    cands = (1 << g.n) - 1
    while cands:
        q = max((p for p in range(g.n) if cands >> p & 1),
                key=lambda p: ((adjm[p] & cands).bit_count(),
                               g.degree(order[p]), -order[p]))
        clique.append(order[q])
        cands &= adjm[q]
    return sorted(clique)


# The search loop as it stood before its dead ends were read from the
# saturation and it jumped back by conflict sets: it pops one depth per
# backtrack and rescans the colours at each.  solver._search must give the
# same status and witness on every input, with no more backtracks.
def reference_search(
    adjm: Sequence[int], order: list[int], k: int, clique: list[int],
    deadline: float, interval: int,
) -> ColorDecision:
    """``is_k_colorable`` for any graph and k >= 0, given a clique of it.

    The graph is ``_masks(g, order)``: vertex order[p] sits at position p.
    Each depth colours the uncoloured position of maximum saturation, the
    least one on ties, except that depth d < len(clique) takes ``clique[d]``,
    which first fit gives colour d.  forb[c] masks the positions with a
    neighbour coloured c (no colour reaches n, so there are min(k, n) of
    them) and stack_new[d] the bits depth d's colour added to it; bit p of
    planes[i] is bit i of p's saturation.  Each step picks a position and
    gives it its first free colour.  When there is none, the inner loop
    backtracks: it steps up a depth, proving "no" once it leaves the clique
    prefix, takes that depth's colour off and tries the next free one.
    ``deadline`` is a ``time.monotonic()`` value, read once per ``interval``
    backtracks.
    """
    if len(clique) > k:
        return ColorDecision("no")

    n = len(adjm)
    fixed = len(clique)
    prefix = [order.index(v) for v in clique]
    forb = [0] * min(k, n)
    planes = [0] * min(k, n).bit_length()
    uncolored = (1 << n) - 1
    stack_pos = [0] * n
    stack_color = [0] * n
    stack_new = [0] * n
    stack_prev_max = [0] * n

    top = k - 1
    max_used = -1
    depth = 0
    next_check = interval
    backtracks = 0
    while depth < n:
        if depth < fixed:
            p = prefix[depth]
        else:
            cand = uncolored
            for plane in reversed(planes):
                if cand & plane:
                    cand &= plane
            p = (cand & -cand).bit_length() - 1
        bit = 1 << p
        limit = max_used + 1 if max_used < top else top
        c = 0
        while c <= limit and forb[c] & bit:
            c += 1
        while c > limit:  # no free colour: backtrack until one is found
            backtracks += 1
            if backtracks == next_check:
                if time.monotonic() >= deadline:
                    return ColorDecision("timeout", backtracks=backtracks)
                next_check += interval
            depth -= 1
            if depth < fixed:
                return ColorDecision("no", backtracks=backtracks)
            p = stack_pos[depth]
            c = stack_color[depth]
            borrow = stack_new[depth]
            forb[c] ^= borrow
            i = 0
            while borrow:  # saturation -= 1 on the bits c had added
                plane = planes[i]
                planes[i] = plane ^ borrow
                borrow &= ~plane
                i += 1
            bit = 1 << p
            uncolored |= bit
            max_used = stack_prev_max[depth]
            limit = max_used + 1 if max_used < top else top
            c += 1
            while c <= limit and forb[c] & bit:
                c += 1
        uncolored ^= bit
        stack_pos[depth] = p
        stack_color[depth] = c
        stack_prev_max[depth] = max_used
        carry = adjm[p] & ~forb[c]
        forb[c] |= carry
        stack_new[depth] = carry
        i = 0
        while carry:  # saturation += 1 on the newly covered bits
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
        if c > max_used:
            max_used = c
        depth += 1
    vertices = [order[p] for p in stack_pos]
    witness = dict(sorted(zip(vertices, stack_color)))
    return ColorDecision("yes", witness=witness, backtracks=backtracks)


def brute_is_k_colorable(g: Graph, k: int) -> bool:
    edges = [(e.u, e.v) for e in g.edges()]
    for assign in product(range(k), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in edges):
            return True
    return False


def brute_chromatic(g: Graph) -> int:
    """Minimal k over exhaustive enumeration of all k-colourings (n <= 8)."""
    assert g.n <= 8, "oracle is exponential; keep it to tiny graphs"
    for k in range(g.n + 1):
        if brute_is_k_colorable(g, k):
            return k
    return g.n


def is_triangle_free(g: Graph) -> bool:
    return all(not set(g.neighbors(u)) & set(g.neighbors(v)) for u, v in g.edges())


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def is_cycle(g: Graph, length: int) -> bool:
    """Canonical structure check: connected, |V| = |E| = length, 2-regular."""
    return (
        g.n == length
        and g.edge_count == length
        and all(g.degree(v) == 2 for v in range(g.n))
        and is_connected(g)
    )


def is_single_edge(g: Graph) -> bool:
    return g.n == 2 and g.edge_count == 1
