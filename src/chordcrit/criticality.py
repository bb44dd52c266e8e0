"""Constructive per-edge colouring certificates for gn(n).

Deleting any single edge of gn(n) leaves a graph colourable with three fewer
colours than the ground set has elements.  The certificate colouring is built
in three cases keyed on the deleted edge: a crossing pair touching element 1,
a crossing pair avoiding 1, and a transverse pair.  Each case fixes a small
anchor set A of elements, colours every chord not inside A by the least of
its elements outside A (the min-based colouring), and covers the chords
inside A with one, two or three fresh colours.

A certificate is stored as a delta: A plus the overrides, the colours that
differ from the min-based rule (at most 16 chords, the fresh classes).  The
full colouring is built only when ``CertificateColoring.assignment`` is
read.

Certificates are built and checked in batches of edges, with numpy.
``_certificate_batch`` takes the chord endpoint arrays of the edges: case
masks give each row its case, A is the case's template over the row's
named elements 1, a, b, c, d and x = c+1, and the overrides come from the
case's fixed fresh-class pairs over the columns of A.  The pairs (s, t)
that ``is_stable_pair`` accepts are kept, with vertex id
``chord_base(n)[s] + t``, the numbering ``gn`` uses.  The overrides of a
batch are (row, chord, colour) triples.

``verify_edge_criticality`` takes the edges of ``gn_adjacency(n)`` in
``Graph.edges()`` order, a fixed-size chunk at a time (``_CHUNK``), so that
the arrays stay bounded as n grows.  Each chunk gets one batch construction
and one batch check (``_check``), which reads only A and the overrides,
never the whole colouring:

* total: every stable chord inside A is overridden, so the overridden
  chords inside A are as many as the stable pairs of A;
* proper: edges of gn(n) join only disjoint chords (the case masks accept
  only crossing and transverse pairs), so a class whose chords all
  contain its colour is independent, and every min-based class is one.
  Only the overridden chords that lack their colour need checking.  A
  fresh colour (> n) is in no chord, so only its class carries it, and the
  class may hold one edge of gn(n), the deleted one; this is read off
  ``gn_adjacency(n)``, built once per sweep.  An override of another
  colour that its chord lacks is checked against all of its neighbours,
  skipping the deleted edge;
* colours used: counted from A, the fresh colours and the min-based
  colours the overrides displace (``_count_colors``);
* the deleted edge's endpoints get one colour.

``critical_coloring`` and ``CertificateColoring.colors_used`` are one-row
views of the same construction and counting code.

``verify_vertex_criticality`` makes one solver decision per deleted vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .families import (
    Chord,
    InvalidParametersError,
    chord_base,
    chord_label,
    classify_pair,
    edge_pattern,
    gn,
    gn_adjacency,
    gn_chords,
    is_stable_pair,
    validate_chord,
)
from .graph import Coloring, Graph, delete_vertex
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
    (a, b), (c, d) = sorted((p, q))
    crossing, transverse = edge_pattern(a, b, c, d)
    if crossing and a == 1:
        return CaseSelection(CriticalCase.CROSSING_WITH_1, a, b, c, d)
    if crossing:
        return CaseSelection(CriticalCase.CROSSING_WITHOUT_1, a, b, c, d)
    if transverse:
        return CaseSelection(CriticalCase.TRANSVERSE, a, b, c, d)
    cls = classify_pair(p, q, n)  # names the class of a non-edge
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


# Row code -> case, in the batches.
_CASES = tuple(CriticalCase)

# Each case's anchor set A, in increasing order, and its fresh classes, one
# string of pairs per colour n+1, n+2, ...  Elements are named as in
# CaseSelection, plus 1 and the transverse case's interior element
# x = c+1, which exists since d-c >= 2.  Each pair is written smaller
# element first, so it is a stable chord exactly when its elements are two
# apart or more and it is not (1, n).
_TEMPLATES = {
    CriticalCase.CROSSING_WITH_1: ("acbd", ("ac ab ad cb cd bd",)),
    CriticalCase.CROSSING_WITHOUT_1: (
        "1acbd", ("1a 1b 1c 1d cb bd", "ab ac ad cd")
    ),
    CriticalCase.TRANSVERSE: (
        "1acxdb", ("1a 1x 1d ax xd", "1b 1c cb xb cx", "ab ac ad cd db")
    ),
}
_NAMES = "1abcdx"  # the columns a row's named elements are stacked in


class _CaseTemplate(NamedTuple):
    columns: list[int]  # A's elements, as columns of _NAMES
    first: np.ndarray  # each fresh-class pair, as two positions in A
    second: np.ndarray
    color: np.ndarray  # its colour, less n


def _compile(anchor: str, classes: tuple[str, ...]) -> _CaseTemplate:
    pairs = [(pair, k) for k, cls in enumerate(classes, 1) for pair in cls.split()]
    return _CaseTemplate(
        [_NAMES.index(name) for name in anchor],
        np.array([anchor.index(s) for (s, _), _ in pairs]),
        np.array([anchor.index(t) for (_, t), _ in pairs]),
        np.array([k for _, k in pairs]),
    )


_CASE_TEMPLATES = tuple(_compile(*_TEMPLATES[case]) for case in _CASES)
_A_WIDTH = max(len(t.columns) for t in _CASE_TEMPLATES)  # smaller A: 0-padded


class _Batch(NamedTuple):
    """Certificates for the edges of a batch, one row per edge.

    Row r is a certificate of case ``_CASES[case[r]]`` with interior element
    ``x[r]`` (0 when its case has none) and anchor set ``A[r]``, increasing
    and padded with 0.  Chord ``chord[i]`` has colour ``color[i]`` in row
    ``row[i]``; each (row, chord) occurs at most once.
    """

    case: np.ndarray
    x: np.ndarray
    A: np.ndarray
    row: np.ndarray
    chord: np.ndarray
    color: np.ndarray


def _certificate_batch(n: int, p: np.ndarray, q: np.ndarray) -> _Batch:
    """Certificates for the edges {p[r], q[r]} of gn(n), where p and q are
    (R, 2) arrays of chords, smaller element first.

    Raises NotAnEdgeError, with ``select_case``'s message, for the first
    row that is not a crossing or transverse pair.
    """
    swap = (q[:, 0] < p[:, 0])[:, None]
    ab, cd = np.where(swap, q, p), np.where(swap, p, q)
    (a, b), (c, d) = ab.T, cd.T
    crossing, transverse = edge_pattern(a, b, c, d)
    if not np.all(crossing | transverse):
        r = int(np.argmin(crossing | transverse))
        select_case(n, tuple(p[r].tolist()), tuple(q[r].tolist()))  # raises
    case = np.where(crossing, np.where(a == 1, 0, 1), 2)  # codes into _CASES
    # The named elements, in the columns of _NAMES: 1, a, b, c, d, x = c+1.
    named = np.concatenate([np.ones_like(ab[:, :1]), ab, cd, cd[:, :1] + 1], axis=1)
    base = np.asarray(chord_base(n))
    A = np.zeros((len(case), _A_WIDTH), dtype=np.int64)
    rows, chords, colors = [], [], []
    for k, t in enumerate(_CASE_TEMPLATES):
        mine = np.flatnonzero(case == k)
        if not len(mine):
            continue
        Ak = named[mine][:, t.columns]
        A[mine, : len(t.columns)] = Ak
        lo, hi = Ak[:, t.first], Ak[:, t.second]
        r, i = np.nonzero(is_stable_pair(lo, hi, n))
        rows.append(mine[r])
        chords.append(base[lo[r, i]] + hi[r, i])
        colors.append(t.color[i] + n)
    x = np.where(case == 2, c + 1, 0)
    return _Batch(case, x, A, *map(np.concatenate, (rows, chords, colors)))


def _row_certificate(n: int, batch: _Batch, r: int) -> CertificateColoring:
    """Row r of a batch as a CertificateColoring."""
    mine = batch.row == r
    return CertificateColoring(
        n,
        _CASES[batch.case[r]],
        int(batch.x[r]) or None,
        tuple(e for e in batch.A[r].tolist() if e),
        dict(zip(batch.chord[mine].tolist(), batch.color[mine].tolist())),
    )


def _membership(n: int, A: np.ndarray) -> np.ndarray:
    """(R, n+1) booleans: entry [r, e] tells whether e is in A[r]."""
    inA = np.zeros((len(A), n + 1), dtype=bool)
    inA[np.arange(len(A))[:, None], A] = True
    inA[:, 0] = False  # the padding
    return inA


def _min_colors(
    inA: np.ndarray, row: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """min({lo, hi} \\ A[row]) for chords (lo, hi), and whether it exists
    (it does not for a chord inside A)."""
    lo_in, hi_in = inA[row, lo], inA[row, hi]
    return np.where(lo_in, hi, lo), ~(lo_in & hi_in)


def _distinct(row: np.ndarray, value: np.ndarray, rows: int) -> np.ndarray:
    """The number of distinct values in each of the rows."""
    order = np.lexsort((value, row))
    row, value = row[order], value[order]
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (value[1:] != value[:-1])
    return np.bincount(row[new], minlength=rows)


def _count_colors(
    n: int,
    inA: np.ndarray,
    row: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    color: np.ndarray,
) -> np.ndarray:
    """Distinct colours of each certificate, from A and the overrides alone.

    ``inA`` is ``_membership`` of the rows' anchor sets, and override i
    gives chord (lo[i], hi[i]) the colour color[i] in row row[i].
    Every element e outside A is the min-based colour of some chord when
    e <= n-2, since (e, e+2) is one; so e colours nothing only when it is
    n-1 or n, or when all the chords it would colour are overridden.  The
    chords it would colour are (e, y) for every y >= e+2, and (x, e) for
    every x in A with x <= e-2, except (1, n).  Each fresh colour is a
    colour; an override colour c <= n adds one unless it is already counted
    as an element outside A that still colours a chord.
    """
    rows, width = inA.shape
    e, outside = _min_colors(inA, row, lo, hi)
    displaced = np.bincount(
        row[outside] * width + e[outside], minlength=rows * width
    ).reshape(rows, width)
    held = np.cumsum(inA, axis=1)  # [r, k]: the elements of A[r] up to k
    size = np.zeros((rows, width), dtype=np.int64)
    size[:, 2:] = held[:, : n - 1]
    size[:, n] -= inA[:, 1]
    elems = np.arange(width)
    size += np.maximum(np.where(elems == 1, n - 1, n) - elems - 1, 0)
    candidate = displaced > 0
    candidate[:, n - 1 :] = True
    unused = candidate & ~inA & (size == displaced)
    fresh = color > n
    low_row, low = row[~fresh], color[~fresh]
    at = np.clip(low, 0, n)
    extra = (low < 1) | inA[low_row, at] | unused[low_row, at]
    return (
        n
        - inA.sum(axis=1)
        - unused.sum(axis=1)
        + _distinct(row[fresh], color[fresh], rows)
        + _distinct(low_row[extra], low[extra], rows)
    )


@dataclass
class CertificateColoring:
    """Certificate colouring for one edge of gn(n), proper once that edge is
    deleted.

    Chord v gets colour ``overrides[v]`` when v is overridden and its
    min-based colour min(v \\ A) otherwise.  The overrides use the fresh
    colours n+1, n+2, ..., one per special class of the edge's case.
    Read-only by convention: ``assignment`` is cached from the other fields
    on first read.
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
        chords = gn_chords(self.n)
        ends = np.array([chords[v] for v in self.overrides], dtype=np.int64)
        counts = _count_colors(
            self.n,
            _membership(self.n, np.array([self.A], dtype=np.int64)),
            np.zeros(len(ends), dtype=np.int64),
            *ends.reshape(-1, 2).T,
            np.fromiter(self.overrides.values(), dtype=np.int64, count=len(ends)),
        )
        return int(counts[0])


def critical_coloring(n: int, p: Chord, q: Chord) -> CertificateColoring:
    """Certificate colouring for the edge {p, q} of gn(n).

    Total on the vertices of gn(n), uses at most n-3 colours, gives p and q
    equal colours, and is proper once that edge is removed.  The anchor set
    A is every element named by the fresh classes, so the overrides are
    exactly the fresh-class chords.  Raw case sets may name unstable pairs;
    only stable chords are kept.
    """
    p, q = validate_chord(p, n), validate_chord(q, n)
    batch = _certificate_batch(n, np.array([p]), np.array([q]))
    return _row_certificate(n, batch, 0)


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

    def lines(self) -> Iterator[str]:
        """The report one line at a time, each ending in a newline."""
        for r in self.rows:
            yield (
                f"{r.edge} {r.case} {r.colors_used} {str(r.proper).lower()} "
                f"{str(r.endpoints_monochromatic).lower()} {r.verdict}\n"
            )
        yield f"certificates {self.passed}/{len(self.rows)} valid at n={self.n}\n"
        if self.solver_status is not None:
            word = {"no": "confirmed", "yes": "refuted", "timeout": "timeout"}[
                self.solver_status
            ]
            yield f"solver: base graph not {self.n - 3}-colourable: {word}\n"

    def render(self) -> str:
        return "".join(self.lines())


# Edges certified per batch.  A batch's arrays grow with its rows times n,
# so a fixed chunk keeps them bounded at any n.  1024 rows keep them near
# 1 MB at the benchmark's sizes, and the fixed cost of a batch small next to
# the cost of its rows.
_CHUNK = 1024


def _color_lookup(inA: np.ndarray, ends: np.ndarray, m: int, batch: _Batch):
    """A function (r, v) -> the colour of chord v in row r of a batch over
    m chords, and whether it has one: its override if it has one, else
    min(v \\ A), which a chord inside A lacks."""
    keys = batch.row * m + batch.chord
    order = np.argsort(keys)
    keys = np.append(keys[order], len(inA) * m)  # a key no query has
    by_key = np.append(batch.color[order], 0)

    def color_of(r: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = np.searchsorted(keys, r * m + v)
        over = keys[at] == r * m + v
        own, has = _min_colors(inA, r, ends[v, 0], ends[v, 1])
        return np.where(over, by_key[at], own), over | has

    return color_of


def _fresh_classes_ok(
    n: int, adj: np.ndarray, eu: np.ndarray, ev: np.ndarray, batch: _Batch
) -> np.ndarray:
    """Whether each row's fresh classes (colours > n) hold no edge of adj
    but the deleted one, eu[r]-ev[r].  Sorted by (row, colour), a class is a
    run, and its pairs are the entries j = 1, 2, ... apart inside it; once a
    j pairs nothing, no run is longer than j."""
    fresh = np.flatnonzero(batch.color > n)
    fresh = fresh[np.lexsort((batch.color[fresh], batch.row[fresh]))]
    row, color, chord = batch.row[fresh], batch.color[fresh], batch.chord[fresh]
    ok = np.ones(len(eu), dtype=bool)
    for j in range(1, len(row)):
        same = (row[j:] == row[:-j]) & (color[j:] == color[:-j])
        if not same.any():
            break
        r, u, v = row[j:][same], chord[:-j][same], chord[j:][same]
        deleted = ((u == eu[r]) & (v == ev[r])) | ((u == ev[r]) & (v == eu[r]))
        ok[r[adj[u, v] & ~deleted]] = False
    return ok


def _check(
    n: int,
    adj: np.ndarray,
    ends: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    batch: _Batch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Proper, endpoints monochromatic, total and colours used, for the
    certificates of the edges eu[r]-ev[r] of a graph on gn(n)'s chords with
    dense adjacency ``adj``."""
    rows = len(eu)
    row, chord, color = batch.row, batch.chord, batch.color
    inA = _membership(n, batch.A)
    # Total: override keys are distinct, so it suffices to count both sides;
    # pairs of A fail to be chords only as consecutive elements or as {1, n}.
    _, outside = _min_colors(inA, row, ends[chord, 0], ends[chord, 1])
    size = inA.sum(axis=1)
    stable_inside = (
        size * (size - 1) // 2
        - (inA[:, 1:n] & inA[:, 2:]).sum(axis=1)
        - (inA[:, 1] & inA[:, n])
    )
    total = np.bincount(row[~outside], minlength=rows) == stable_inside
    proper = total & _fresh_classes_ok(n, adj, eu, ev, batch)
    # An override of colour c <= n that its chord lacks, against every
    # neighbour but the other end of the deleted edge.
    color_of = _color_lookup(inA, ends, len(adj), batch)
    lacks = (color <= n) & (color != ends[chord, 0]) & (color != ends[chord, 1])
    l_row, l_chord, l_color = row[lacks], chord[lacks], color[lacks]
    k, w = np.nonzero(adj[l_chord])
    r, v, c = l_row[k], l_chord[k], l_color[k]
    cw, has = color_of(r, w)
    deleted = ((v == eu[r]) & (w == ev[r])) | ((v == ev[r]) & (w == eu[r]))
    proper[r[has & (cw == c) & ~deleted]] = False
    # A total certificate colours every chord.
    everyone = np.arange(rows)
    mono = total & (color_of(everyone, eu)[0] == color_of(everyone, ev)[0])
    used = _count_colors(n, inA, row, ends[chord, 0], ends[chord, 1], color)
    return proper, mono, total, used


def verify_edge_criticality(
    n: int,
    use_solver: bool = False,
    cfg: SolverConfig | None = None,
) -> EdgeCriticalityReport:
    """Certify every edge of gn(n); optionally solver-check the base graph.

    The sweep reads ``gn_adjacency(n)`` and builds gn(n) only for the
    solver.  Rows follow the edge order of the graph, and are built a chunk
    of edges at a time.  Raises AssertionError, and returns no report, if an
    edge of the adjacency is not a crossing or transverse pair: such pairs
    are disjoint, the premise of the class by class properness check.
    """
    solver_status: str | None = None
    if use_solver:
        solver_status = is_k_colorable(gn(n), n - 3, cfg).status
    adj = gn_adjacency(n)
    chords = gn_chords(n)
    labels = [chord_label(p) for p in chords]
    ends = np.array(chords, dtype=np.int64)
    # Row-major order of the upper triangle is the order of Graph.edges().
    eu, ev = np.nonzero(np.triu(adj, 1))
    names = [case.value for case in _CASES]
    rows: list[EdgeCertRow] = []
    for start in range(0, len(eu), _CHUNK):
        u, v = eu[start : start + _CHUNK], ev[start : start + _CHUNK]
        try:
            batch = _certificate_batch(n, ends[u], ends[v])
        except NotAnEdgeError as exc:
            raise AssertionError(f"gn({n}): {exc}") from exc
        proper, mono, total, colors_used = _check(n, adj, ends, u, v, batch)
        ok = total & proper & mono & (colors_used <= n - 3)
        rows += map(
            EdgeCertRow,
            # ids are lexicographic, so u < v puts the smaller chord first
            [f"{labels[a]},{labels[b]}" for a, b in zip(u.tolist(), v.tolist())],
            [names[k] for k in batch.case.tolist()],
            colors_used.tolist(),
            proper.tolist(),
            mono.tolist(),
            total.tolist(),
            [("fail", "pass")[k] for k in ok.tolist()],
        )
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
