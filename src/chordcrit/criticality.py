"""Constructive per-edge colouring certificates for gn(n).

Deleting any single edge of gn(n) leaves a graph colourable with three fewer
colours than the ground set has elements.  The certificate colouring is built
in three cases keyed on the deleted edge: a crossing pair touching element 1,
a crossing pair avoiding 1, and a transverse pair.  Each case fixes a small
anchor set A of elements, colours every chord not inside A by the least of
its elements outside A (the min-based colouring), and covers the chords
inside A with one, two or three fresh colours.

A certificate is stored as a delta: A plus ``overrides``, the colours that
differ from the min-based rule (at most 16 chords, the fresh classes).  A is
the elements the case names, and each stable pair of a fresh class gets its
vertex id from the closed-form table ``families.chord_base``, the one that
``gn`` numbers its chords by.  The full colouring is built only when
``CertificateColoring.assignment`` is read.

``verify_edge_criticality`` sweeps every edge, validates each certificate
mechanically (total, <= n-3 colours, proper after deleting the edge,
deleted endpoints monochromatic), and can cross-check with the exact solver.
The check reads only A and the overrides, never the whole colouring, and
walks the overrides once (``_walk``).  That walk counts the overridden
chords inside A: the certificate is total when every stable chord inside A
is one of them.  Edges of gn(n) join only disjoint chords, checked edge by
edge: ``select_case`` accepts only crossing and transverse pairs.  So a
class whose chords all contain its colour is independent; every min-based
class is one.  Only the overridden chords that lack their colour are
checked, skipping the deleted edge, and the walk sorts them for it: for a
fresh colour (> n), which no chord contains and so only overridden chords
carry, it collects the class, whose members are checked against each
other; it sets aside each override of another colour, checked against all
of its neighbours.  It also counts the min-based colours the overrides
displace, and the colours are counted from those tallies and A
(``_count_colors``, which ``colors_used`` goes through as well).

``verify_vertex_criticality`` makes one solver decision per deleted vertex.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .families import (
    Chord,
    InvalidParametersError,
    chord_base,
    classify_pair,
    gn,
    gn_chords,
    validate_chord,
)
from .graph import Coloring, Edge, Graph, delete_vertex, edge
from .solver import SolverConfig, chromatic_number, is_k_colorable


class NotAnEdgeError(ValueError):
    """The chord pair is neither crossing nor transverse."""


class CriticalCase(Enum):
    CROSSING_WITH_1 = "crossing-with-1"
    CROSSING_WITHOUT_1 = "crossing-without-1"
    TRANSVERSE = "transverse"


class CaseSelection(NamedTuple):
    """Deleted-edge case with endpoint roles normalized.

    For the crossing cases (a, b) x (c, d) satisfies a < c < b < d (and a = 1
    in the with-1 case); for the transverse case (c, d) nests inside (a, b)
    as 1 < a < c < d < b.
    """

    case: CriticalCase
    a: int
    b: int
    c: int
    d: int


def select_case(n: int, p: Chord, q: Chord) -> CaseSelection:
    p = validate_chord(p, n)
    q = validate_chord(q, n)
    # The two edge patterns; classify_pair names the class of a non-edge.
    (a, b), (c, d) = sorted((p, q))
    if a < c < b:
        if b < d:
            if a == 1:
                return CaseSelection(CriticalCase.CROSSING_WITH_1, a, b, c, d)
            return CaseSelection(CriticalCase.CROSSING_WITHOUT_1, a, b, c, d)
        if d < b and a > 1:
            return CaseSelection(CriticalCase.TRANSVERSE, a, b, c, d)
    cls = classify_pair(p, q, n)
    raise NotAnEdgeError(f"chords {p} and {q} form a {cls.value} pair, not an edge")


def min_based_coloring(n: int, A: set[int] | frozenset[int]) -> Coloring:
    """Partial colouring: chord {x, y} not inside A gets min({x, y} \\ A).

    Chords contained in A stay uncoloured.  Colour ids are the elements of
    [n] outside A themselves, so at most n - |A| colours appear.  Two
    disjoint chords can never share a colour: both would contain it.
    """
    if not all(1 <= x <= n for x in A):
        raise InvalidParametersError(f"A must be a subset of [{n}]")
    coloring: Coloring = {}
    for i, p in enumerate(gn_chords(n)):
        c = _min_color(p, A)
        if c is not None:
            coloring[i] = c
    return coloring


def _min_color(p: Chord, A: set[int]) -> int | None:
    """min(p \\ A) for a chord p = (x, y), x < y; None when p is inside A."""
    x, y = p
    if x not in A:
        return x
    return y if y not in A else None


def _min_class_size(n: int, A: tuple[int, ...], e: int) -> int:
    """Chords whose min-based colour is e, for e outside the sorted tuple A:
    (e, y) for every y >= e+2, and (x, e) for every x in A with x <= e-2,
    except (1, n)."""
    later = max((n - 1 if e == 1 else n) - e - 1, 0)
    earlier = bisect_right(A, e - 2) - (e == n and A[:1] == (1,))
    return later + earlier


@dataclass
class CertificateColoring:
    """Certificate colouring for one edge of gn(n), proper once that edge is
    deleted.

    Chord v gets colour ``overrides[v]`` when v is overridden and its
    min-based colour min(v \\ A) otherwise.  The overrides use the fresh
    colours n+1, n+2, ..., one per special class of the edge's case.
    Read-only by convention: ``assignment`` is cached from the other fields
    on first read.  It is not frozen because a sweep builds one per edge,
    and field-by-field frozen construction costs several percent of the
    sweep.
    """

    n: int
    case: CriticalCase
    x: int | None
    A: tuple[int, ...]
    overrides: dict[int, int]

    @cached_property
    def assignment(self) -> Coloring:
        """The whole colouring, vertex id -> colour, built when first read."""
        coloring = min_based_coloring(self.n, set(self.A))
        coloring.update(self.overrides)
        return coloring

    @property
    def colors_used(self) -> int:
        """Distinct colours, counted from A and the overrides alone."""
        A = set(self.A)
        _, fresh, displaced, low = _walk(self.n, self.overrides, gn_chords(self.n), A)
        return _count_colors(self.n, self.A, A, displaced, fresh, low)


def _walk(
    n: int, overrides: dict[int, int], chords: tuple[Chord, ...], A: set[int]
) -> tuple[int, dict[int, list[int]], dict[int, int], list[tuple[int, int]]]:
    """One pass over the overrides of a certificate with anchor set A.

    Returns the number of overridden chords inside A; the fresh classes,
    colour (> n) -> overridden chords; the min-based colours the overrides
    displace, min(v \\ A) -> count; and the overrides (v, c) of colour c <= n.
    """
    inside = 0
    fresh: dict[int, list[int]] = {}
    displaced: dict[int, int] = {}
    low: list[tuple[int, int]] = []
    for v, c in overrides.items():
        x, y = chords[v]
        if x not in A:
            displaced[x] = displaced.get(x, 0) + 1
        elif y not in A:
            displaced[y] = displaced.get(y, 0) + 1
        else:
            inside += 1
        if c <= n:
            low.append((v, c))
        elif c in fresh:
            fresh[c].append(v)
        else:
            fresh[c] = [v]
    return inside, fresh, displaced, low


def _count_colors(
    n: int,
    elems: tuple[int, ...],
    A: set[int],
    displaced: dict[int, int],
    fresh: dict[int, list[int]],
    low: list[tuple[int, int]],
) -> int:
    """Distinct colours of a certificate, from the tallies of ``_walk``.

    Every element e outside A is the min-based colour of some chord when
    e <= n-2, since (e, e+2) is one; so e colours nothing only when it is
    n-1 or n, or when all the chords it would colour are overridden.  Each
    fresh colour is a colour; an override colour c <= n adds one unless it
    is already counted as an element outside A that still colours a chord.
    """
    unused = set()
    for e in (n - 1, n, *displaced):
        if e not in A and _min_class_size(n, elems, e) == displaced.get(e, 0):
            unused.add(e)
    extra = {c for _, c in low if c < 1 or c in A or c in unused}
    return n - len(A) - len(unused) + len(fresh) + len(extra)


def _special_classes(
    sel: CaseSelection,
) -> tuple[int | None, tuple[int, ...], list[list[Chord]]]:
    """The interior element x (transverse case only), the anchor set A and
    the chord sets for the fresh colours, before stability filtering.

    A is every element the case names, in increasing order: a < c < b < d
    in the crossing cases, after 1 when a > 1, and 1 < a < c < x < d < b in
    the transverse one.  Each pair is written smaller element first, so it
    is a stable chord exactly when its elements are two apart or more and
    it is not (1, n).
    """
    a, b, c, d = sel.a, sel.b, sel.c, sel.d
    if sel.case is CriticalCase.CROSSING_WITH_1:
        A = (a, c, b, d)
        return None, A, [list(combinations(A, 2))]
    if sel.case is CriticalCase.CROSSING_WITHOUT_1:
        return None, (1, a, c, b, d), [
            [(1, a), (1, b), (1, c), (1, d), (c, b), (b, d)],
            [(a, b), (a, c), (a, d), (c, d)],
        ]
    x = c + 1  # smallest element strictly inside (c, d); exists since d-c >= 2
    return x, (1, a, c, x, d, b), [
        [(1, a), (1, x), (1, d), (a, x), (x, d)],
        [(1, b), (1, c), (c, b), (x, b), (c, x)],
        [(a, b), (a, c), (a, d), (c, d), (d, b)],
    ]


def critical_coloring(n: int, p: Chord, q: Chord) -> CertificateColoring:
    """Certificate colouring for the edge {p, q} of gn(n).

    Total on the vertices of gn(n), uses at most n-3 colours, gives p and q
    equal colours, and is proper once that edge is removed.  The anchor set
    A is every element named by the fresh classes, so the overrides are
    exactly the fresh-class chords.  Raw case sets may name unstable pairs;
    only stable chords are kept.
    """
    sel = select_case(n, p, q)
    x, A, raw_classes = _special_classes(sel)
    base = chord_base(n)
    overrides: dict[int, int] = {}
    for color_id, raw in enumerate(raw_classes, start=n + 1):
        for s, t in raw:
            if t - s > 1 and (s > 1 or t < n):  # (s, t) is a stable chord
                overrides[base[s] + t] = color_id
    return CertificateColoring(n, sel.case, x, A, overrides)


class EdgeCertRow(NamedTuple):
    edge: str
    case: str
    colors_used: int
    proper: bool
    endpoints_monochromatic: bool
    total: bool
    verdict: str  # "pass" | "fail"


@dataclass(frozen=True)
class EdgeCriticalityReport:
    n: int
    rows: tuple[EdgeCertRow, ...]
    # Raw decision on the base graph at k = n-3: "no" | "yes" | "timeout",
    # or None when the solver cross-check was not requested.
    solver_status: str | None

    @property
    def all_pass(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)

    @property
    def passed(self) -> int:
        return sum(r.verdict == "pass" for r in self.rows)

    @property
    def solver_confirms_chromatic(self) -> bool | None:
        return None if self.solver_status is None else self.solver_status == "no"

    @property
    def solver_timed_out(self) -> bool:
        return self.solver_status == "timeout"

    def render(self) -> str:
        lines = [
            f"{r.edge} {r.case} {r.colors_used} {str(r.proper).lower()} "
            f"{str(r.endpoints_monochromatic).lower()} {r.verdict}"
            for r in self.rows
        ]
        lines.append(f"certificates {self.passed}/{len(self.rows)} valid at n={self.n}")
        if self.solver_status is not None:
            word = {"no": "confirmed", "yes": "refuted", "timeout": "timeout"}[
                self.solver_status
            ]
            lines.append(
                f"solver: base graph not {self.n - 3}-colourable: {word}"
            )
        return "\n".join(lines) + "\n"


def _certify_one(
    n: int, g: Graph, chords: tuple[Chord, ...], e: Edge
) -> EdgeCertRow:
    try:
        cert = critical_coloring(n, chords[e.u], chords[e.v])
    except NotAnEdgeError as exc:
        raise AssertionError(f"gn({n}): {exc}") from exc
    A = set(cert.A)
    overrides = cert.overrides
    adj = g.adj

    def color(v: int) -> int | None:
        c = overrides.get(v)
        return c if c is not None else _min_color(chords[v], A)

    inside, fresh, displaced, low = _walk(n, overrides, chords, A)
    # Edges of gn(n) join disjoint chords, so one end of a monochromatic
    # edge lacks the shared colour, and only overridden chords lack theirs.
    # A fresh colour (> n) is in no chord, so only its class carries it.
    proper = True
    for v, c in low:
        if c not in chords[v]:
            for w in adj[v]:
                if color(w) == c and edge(v, w) != e:
                    proper = False
    # A fresh class may hold one edge of gn(n), the deleted one; the sum
    # counts each edge inside the class twice.
    for members in fresh.values():
        cls = set(members)
        inner = 0
        for v in members:
            if not cls.isdisjoint(adj[v]):  # most members have no such edge
                inner += len(cls & adj[v])
        if inner > 2 * (e.u in cls and e.v in cls):
            proper = False
    # Total: every stable chord inside A is overridden.  Override keys are
    # distinct ids, so it suffices to count both sides; pairs of A fail to
    # be chords only as consecutive elements or as {1, n}.
    elems = cert.A
    stable_inside = (
        len(elems) * (len(elems) - 1) // 2
        - [y - x for x, y in zip(elems, elems[1:])].count(1)
        - (1 in A and n in A)
    )
    total = inside == stable_inside
    proper = proper and total
    endpoints_mono = total and color(e.u) == color(e.v)
    colors_used = _count_colors(n, elems, A, displaced, fresh, low)
    ok = total and proper and endpoints_mono and colors_used <= n - 3
    return EdgeCertRow(
        edge=f"{g.labels[e.u]},{g.labels[e.v]}",  # ids are lexicographic
        case=cert.case.value,
        colors_used=colors_used,
        proper=proper,
        endpoints_monochromatic=endpoints_mono,
        total=total,
        verdict="pass" if ok else "fail",
    )


def verify_edge_criticality(
    n: int,
    use_solver: bool = False,
    cfg: SolverConfig | None = None,
) -> EdgeCriticalityReport:
    """Certify every edge of gn(n); optionally solver-check the base graph.

    Rows follow the edge order of the graph, which is walked once.  Raises
    AssertionError, and returns no report, if an edge of gn(n) is not a
    crossing or transverse pair: such pairs are disjoint, the premise of
    the class by class properness check.
    """
    g = gn(n)
    chords = gn_chords(n)
    rows = tuple(_certify_one(n, g, chords, e) for e in g.edges())
    solver_status: str | None = None
    if use_solver:
        solver_status = is_k_colorable(g, n - 3, cfg).status
    return EdgeCriticalityReport(n, rows, solver_status)


@dataclass(frozen=True)
class VertexCritRow:
    label: str
    chi_before: int
    chi_after: int
    dropped: bool
    timeout: bool


@dataclass(frozen=True)
class VertexCriticalityReport:
    chi: int
    rows: tuple[VertexCritRow, ...]
    timed_out: bool

    @property
    def all_dropped(self) -> bool:
        return not self.timed_out and all(r.dropped for r in self.rows)

    def render(self) -> str:
        lines = [
            f"{r.label} {r.chi_before} {r.chi_after} "
            f"{'timeout' if r.timeout else ('drop' if r.dropped else 'no-drop')}"
            for r in self.rows
        ]
        lines.append(
            f"vertex deletions dropping chi: "
            f"{sum(r.dropped for r in self.rows)}/{len(self.rows)}"
        )
        return "\n".join(lines) + "\n"


def verify_vertex_criticality(
    g: Graph, cfg: SolverConfig | None = None
) -> VertexCriticalityReport:
    """Check that deleting any single vertex lowers the chromatic number.

    chi(G) - 1 <= chi(G - v) <= chi(G): a colouring of G - v plus a fresh
    colour for v colours G.  So one decision at k = chi(G) - 1 settles
    each row: "yes" drops chi, "no" keeps it, a timeout reports it kept.
    """
    cfg = cfg or SolverConfig()
    base = chromatic_number(g, cfg)
    if base.status != "exact":
        return VertexCriticalityReport(base.chi, (), True)
    chi = base.chi
    rows = []
    for v in range(g.n):
        status = is_k_colorable(delete_vertex(g, v), chi - 1, cfg).status
        dropped = status == "yes"
        after = chi - 1 if dropped else chi
        rows.append(VertexCritRow(g.labels[v], chi, after, dropped, status == "timeout"))
    return VertexCriticalityReport(chi, tuple(rows), any(r.timeout for r in rows))
