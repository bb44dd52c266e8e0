"""Constructive per-edge colouring certificates for gn(n).

Deleting any single edge of gn(n) leaves a graph colourable with three fewer
colours than the ground set has elements.  The certificate colouring is built
in three cases keyed on the deleted edge: a crossing pair touching element 1,
a crossing pair avoiding 1, and a transverse pair.  Each case fixes a small
anchor set A of elements, colours every chord not inside A by the least of
its elements outside A (the min-based colouring), and covers the chords
inside A with one, two or three fresh colours.

``verify_edge_criticality`` sweeps every edge, validates each certificate
mechanically (total, <= n-3 colours, proper after deleting the edge,
deleted endpoints monochromatic), and can cross-check with the exact solver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .families import (
    Chord,
    InvalidParametersError,
    PairClass,
    chord_index,
    chord_label,
    classify_pair,
    gn,
    gn_chords,
    is_stable_pair,
    validate_chord,
)
from .graph import Coloring, Graph, count_colors, delete_vertex
from .solver import SolverConfig, chromatic_number, is_k_colorable


class NotAnEdgeError(ValueError):
    """The chord pair is neither crossing nor transverse."""


class CriticalCase(Enum):
    CROSSING_WITH_1 = "crossing-with-1"
    CROSSING_WITHOUT_1 = "crossing-without-1"
    TRANSVERSE = "transverse"


@dataclass(frozen=True)
class CaseSelection:
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
    cls = classify_pair(p, q, n)
    if cls is PairClass.CROSSING:
        (a, b), (c, d) = (p, q) if p[0] < q[0] else (q, p)
        if a == 1:
            return CaseSelection(CriticalCase.CROSSING_WITH_1, a, b, c, d)
        return CaseSelection(CriticalCase.CROSSING_WITHOUT_1, a, b, c, d)
    if cls is PairClass.TRANSVERSE:
        (a, b), (c, d) = (p, q) if p[0] < q[0] else (q, p)
        return CaseSelection(CriticalCase.TRANSVERSE, a, b, c, d)
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
    for i, (x, y) in enumerate(gn_chords(n)):
        if x not in A:  # chords are stored with x < y
            coloring[i] = x
        elif y not in A:
            coloring[i] = y
    return coloring


@dataclass(frozen=True)
class CertificateColoring:
    """Colouring of gn(n) that is proper once `edge_chords` is deleted."""

    n: int
    case: CriticalCase
    edge_chords: tuple[Chord, Chord]
    a: int
    b: int
    c: int
    d: int
    x: int | None
    A: tuple[int, ...]
    assignment: Coloring
    special_colors: dict[str, int]

    @property
    def colors_used(self) -> int:
        return count_colors(self.assignment)


def _special_classes(sel: CaseSelection, n: int) -> list[list[Chord]]:
    """Chord sets for the fresh colours, before stability filtering."""
    a, b, c, d = sel.a, sel.b, sel.c, sel.d
    if sel.case is CriticalCase.CROSSING_WITH_1:
        elems = sorted({a, b, c, d})
        all_pairs = [
            (elems[i], elems[j])
            for i in range(len(elems))
            for j in range(i + 1, len(elems))
        ]
        return [all_pairs]
    if sel.case is CriticalCase.CROSSING_WITHOUT_1:
        return [
            [(1, a), (1, b), (1, c), (1, d), (b, c), (b, d)],
            [(a, b), (a, c), (a, d), (c, d)],
        ]
    x = c + 1  # smallest element strictly inside (c, d); exists since d-c >= 2
    return [
        [(1, a), (1, x), (1, d), (a, x), (d, x)],
        [(1, b), (1, c), (b, c), (b, x), (c, x)],
        [(a, b), (a, c), (a, d), (c, d), (b, d)],
    ]


def critical_coloring(n: int, p: Chord, q: Chord) -> CertificateColoring:
    """Certificate colouring for the edge {p, q} of gn(n).

    Total on the vertices of gn(n), uses at most n-3 colours, gives p and q
    equal colours, and is proper once that edge is removed.  Raw case sets
    may name unstable pairs; only stable chords are kept.
    """
    sel = select_case(n, p, q)
    if sel.case is CriticalCase.TRANSVERSE:
        x: int | None = sel.c + 1
        A = tuple(sorted({1, sel.a, sel.b, sel.c, sel.d, x}))
    elif sel.case is CriticalCase.CROSSING_WITH_1:
        x = None
        A = tuple(sorted({sel.a, sel.b, sel.c, sel.d}))
    else:
        x = None
        A = tuple(sorted({1, sel.a, sel.b, sel.c, sel.d}))

    assignment = min_based_coloring(n, set(A))
    ids = chord_index(n)
    specials: dict[str, int] = {}
    for idx, raw in enumerate(_special_classes(sel, n), start=1):
        color_id = n + idx
        specials[f"l{idx}"] = color_id
        for u, v in raw:
            chord = (u, v) if u < v else (v, u)
            if is_stable_pair(chord[0], chord[1], n):
                assignment[ids[chord]] = color_id
    return CertificateColoring(
        n=n,
        case=sel.case,
        edge_chords=(p, q) if p < q else (q, p),
        a=sel.a,
        b=sel.b,
        c=sel.c,
        d=sel.d,
        x=x,
        A=A,
        assignment=assignment,
        special_colors=specials,
    )


def render_certificate(cert: CertificateColoring) -> str:
    """Certificate text: 'n case edge A x' header, then 'chord colour' lines."""
    chords = gn_chords(cert.n)
    names = {v: k for k, v in cert.special_colors.items()}
    e = ",".join(chord_label(p) for p in cert.edge_chords)
    a_txt = ",".join(str(e) for e in cert.A)
    x_txt = str(cert.x) if cert.x is not None else "-"
    lines = [f"{cert.n} {cert.case.value} {e} {a_txt} {x_txt}"]
    for i, chord in enumerate(chords):
        colour = cert.assignment[i]
        lines.append(f"{chord_label(chord)} {names.get(colour, colour)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EdgeCertRow:
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


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    eu = np.fromiter((e.u for e in g.edges()), dtype=np.int64, count=g.edge_count)
    ev = np.fromiter((e.v for e in g.edges()), dtype=np.int64, count=g.edge_count)
    return eu, ev


def _certify_edges(
    n: int,
    edge_list: list[tuple[Chord, Chord]],
    eu: np.ndarray,
    ev: np.ndarray,
) -> list[EdgeCertRow]:
    n_chords = len(gn_chords(n))
    return [_certify_one(n, p, q, eu, ev, n_chords) for p, q in edge_list]


def _certify_one(
    n: int,
    p: Chord,
    q: Chord,
    eu: np.ndarray,
    ev: np.ndarray,
    n_chords: int,
) -> EdgeCertRow:
    label = ",".join(chord_label(t) for t in sorted((p, q)))
    try:
        cert = critical_coloring(n, p, q)
    except NotAnEdgeError as exc:
        return EdgeCertRow(label, "error", 0, False, False, False, f"fail:{exc}")
    total = len(cert.assignment) == n_chords
    if total:
        colors = np.empty(n_chords, dtype=np.int64)
        for v, c in cert.assignment.items():
            colors[v] = c
        mono = colors[eu] == colors[ev]
        ids = chord_index(n)
        e_u, e_v = sorted((ids[cert.edge_chords[0]], ids[cert.edge_chords[1]]))
        deleted = (eu == e_u) & (ev == e_v)
        proper = bool(not np.any(mono & ~deleted))
        endpoints_mono = bool(np.all(mono[deleted]))
    else:
        proper = False
        endpoints_mono = False
    few_enough = cert.colors_used <= n - 3
    ok = total and proper and endpoints_mono and few_enough
    return EdgeCertRow(
        edge=label,
        case=cert.case.value,
        colors_used=cert.colors_used,
        proper=proper,
        endpoints_monochromatic=endpoints_mono,
        total=total,
        verdict="pass" if ok else "fail",
    )


def verify_edge_criticality(
    n: int,
    use_solver: bool = False,
    cfg: SolverConfig | None = None,
    workers: int = 1,
) -> EdgeCriticalityReport:
    """Certify every edge of gn(n); optionally solver-check the base graph.

    The sweep is independent per edge, so it can be dealt round-robin to at
    most one worker process per CPU; row order follows the edge order of the
    graph.
    """
    if workers < 1:
        raise InvalidParametersError(f"workers must be >= 1, got {workers}")
    g = gn(n)
    chords = gn_chords(n)
    edge_list = [(chords[e.u], chords[e.v]) for e in g.edges()]
    eu, ev = _edge_arrays(g)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(edge_list) >= 64:
        rows: list[EdgeCertRow | None] = [None] * len(edge_list)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _certify_edges,
                [n] * workers,
                [edge_list[i::workers] for i in range(workers)],
                [eu] * workers,
                [ev] * workers,
            )
            for i, part in enumerate(parts):
                rows[i::workers] = part
    else:
        rows = _certify_edges(n, edge_list, eu, ev)
    solver_status: str | None = None
    if use_solver:
        solver_status = is_k_colorable(g, n - 3, cfg).status
    return EdgeCriticalityReport(n, tuple(rows), solver_status)


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
    """Check that deleting any single vertex lowers the chromatic number."""
    cfg = cfg or SolverConfig()
    base = chromatic_number(g, cfg)
    if base.status != "exact":
        return VertexCriticalityReport(base.chi, (), True)
    rows = []
    timed_out = False
    for v in range(g.n):
        sub = chromatic_number(delete_vertex(g, v), cfg)
        timeout = sub.status != "exact"
        timed_out = timed_out or timeout
        rows.append(
            VertexCritRow(
                label=g.labels[v],
                chi_before=base.chi,
                chi_after=sub.chi,
                dropped=(not timeout) and sub.chi < base.chi,
                timeout=timeout,
            )
        )
    return VertexCriticalityReport(base.chi, tuple(rows), timed_out)
