"""Brute-force oracles, written independently of the library code paths.

Everything here works by exhaustive enumeration directly from definitions;
the library must agree with these on small instances.
"""

from itertools import combinations, product

import numpy as np

from chordcrit import criticality
from chordcrit.criticality import EdgeCertRow
from chordcrit.families import chord_label
from chordcrit.graph import Edge, Graph, build_graph
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


def brute_proper(g: Graph, coloring: dict[int, int]) -> bool:
    """Direct double loop: total and no monochromatic edge."""
    for v in range(g.n):
        if v not in coloring:
            return False
    for u in range(g.n):
        for v in g.adj[u]:
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
            case=cert.case.value,
            colors_used=colors_used,
            proper=proper,
            endpoints_monochromatic=endpoints_mono,
            total=total,
            verdict="pass" if ok else "fail",
        ))
    return rows


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
    return all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in g.adj[u]:
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
