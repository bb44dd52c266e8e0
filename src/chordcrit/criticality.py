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
masks give each row its case, whose template, a table row, names A and
the fresh-class pairs among the row's elements 1, a, b, c, d and
x = c+1.  The pairs (s, t) that ``is_stable_pair`` accepts are kept, with
vertex id ``chord_base(n)[s] + t``, the numbering ``gn`` uses, as
(row, chord, colour) triples.

``verify_edge_criticality`` takes the edges of gn(n) in ``Graph.edges()``
order, a chunk at a time (``_CHUNK``), so that its arrays stay bounded as
n grows, and keeps only their verdicts, 15 bytes an edge (``_VERDICT``),
which the report formats when read.  Each chunk gets one batch
construction and one batch check (``_check``), which reads only A and the
overrides, never the whole colouring.  The check sorts the overrides once,
by (row, colour), so that each colour class of a row is a run, and reads
off that order:

* total: the overridden chords inside A are as many as the stable pairs
  of A;
* proper: edges of gn(n) join only disjoint chords (the case masks accept
  only crossing and transverse pairs), so a class whose chords all
  contain its colour is independent, and every min-based class is one.
  No run may hold an edge but the deleted one; a fresh colour (> n) is in
  no chord, so its run is its class.  An override of another colour that
  its chord lacks is checked against all of its neighbours, skipping the
  deleted edge, by a (row, chord) lookup built only for such overrides.
  Both tests tell the deleted edge by one predicate, either orientation;
* the deleted edge's ends, each matched against its row's overrides or
  else min-based, get one colour;
* colours used: the elements outside A that still colour a chord, and one
  per run of any other colour (``_count_colors``).

``critical_coloring`` is a one-row view of the same construction; its
``CertificateColoring.colors_used`` is the plain count over the whole
colouring, against which the tests check ``_count_colors``.

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
    _upper_adjacency,
    chord_base,
    chord_label,
    classify_pair,
    edge_pattern,
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
        if x not in A:
            coloring[i] = x
        elif y not in A:
            coloring[i] = y
    return coloring


# Row code -> case, in the batches.
_CASES = tuple(CriticalCase)

# Each case's anchor set A, in increasing order, and its fresh classes, one
# string of pairs per colour n+1, n+2, ...  The edge's chords are (a, b)
# and (c, d), a < c, so a < c < b < d when they cross (a = 1 in the with-1
# case) and 1 < a < c < d < b when transverse; 1 and the transverse case's
# interior element x = c+1, which exists since d-c >= 2, are named too.
# Each pair is written smaller element first, so it is a stable chord
# exactly when its elements are two apart or more and it is not (1, n).
_TEMPLATES = {
    CriticalCase.CROSSING_WITH_1: ("acbd", ("ac ab ad cb cd bd",)),
    CriticalCase.CROSSING_WITHOUT_1: (
        "1acbd", ("1a 1b 1c 1d cb bd", "ab ac ad cd")
    ),
    CriticalCase.TRANSVERSE: (
        "1acxdb", ("1a 1x 1d ax xd", "1b 1c cb xb cx", "ab ac ad cd db")
    ),
}
_NAMES = "1abcdx0"  # the columns a row's named elements are stacked in


def _compile(anchor: str, classes: tuple[str, ...]) -> list[list[int]]:
    """A case's template as columns of _NAMES: A, padded to 6 with the zero
    column; each fresh-class pair, padded to 15 with (0, 0), no chord; and
    each pair's colour less n."""
    pairs = [pair for cls in classes for pair in cls.split()] + ["00"] * 15
    colors = [k for k, cls in enumerate(classes, 1) for _ in cls.split()]
    return [
        [_NAMES.index(s) for s in anchor.ljust(6, "0")],
        [_NAMES.index(s) for s, _ in pairs[:15]],
        [_NAMES.index(t) for _, t in pairs[:15]],
        (colors + [0] * 15)[:15],
    ]


# The templates as tables indexed by case code; the pairs of A's columns.
_A_COLUMNS, _FIRST, _SECOND, _COLOR = map(
    np.array, zip(*(_compile(*_TEMPLATES[case]) for case in _CASES))
)
_A_PAIRS = np.array([(s, t) for t in range(6) for s in range(t)]).T


class _Batch(NamedTuple):
    """Certificates for the edges of a batch, one row per edge.

    Row r is a certificate of case ``_CASES[case[r]]`` with anchor set
    ``A[r]``, increasing and padded with 0.  Chord ``chord[i]`` has colour
    ``color[i]`` in row ``row[i]``; each (row, chord) occurs at most once.
    """

    case: np.ndarray
    A: np.ndarray
    row: np.ndarray
    chord: np.ndarray
    color: np.ndarray


def _certificate_batch(n: int, p: np.ndarray, q: np.ndarray) -> _Batch:
    """Certificates for the edges {p[r], q[r]} of gn(n), where p and q are
    (R, 2) arrays of chords, smaller element first.

    Raises NotAnEdgeError, naming the pair's ``classify_pair`` class, for
    the first row that is not a crossing or transverse pair.
    """
    swap = (q[:, 0] < p[:, 0])[:, None]
    ab, cd = np.where(swap, q, p), np.where(swap, p, q)
    (a, b), (c, d) = ab.T, cd.T
    crossing, transverse = edge_pattern(a, b, c, d)
    if not np.all(crossing | transverse):
        r = int(np.argmin(crossing | transverse))
        p_r, q_r = tuple(p[r].tolist()), tuple(q[r].tolist())
        cls = classify_pair(p_r, q_r, n).value
        article = "an" if cls[0] in "aeiou" else "a"
        raise NotAnEdgeError(f"chords {p_r} and {q_r} form {article} {cls} pair, not an edge")
    case = np.where(crossing, np.where(a == 1, 0, 1), 2)  # codes into _CASES
    # The named elements, in the columns of _NAMES: 1, a, b, c, d, x = c+1, 0.
    ones = np.ones_like(ab[:, :1])
    named = np.concatenate([ones, ab, cd, cd[:, :1] + 1, 0 * ones], axis=1)
    at = np.arange(len(case))[:, None] * named.shape[1]
    A, lo, hi = (
        named.take(at + t.take(case, axis=0)) for t in (_A_COLUMNS, _FIRST, _SECOND)
    )
    k = np.flatnonzero(is_stable_pair(lo, hi, n))
    row = k // lo.shape[1]
    chord = np.take(chord_base(n), lo.take(k)) + hi.take(k)
    color = _COLOR.take(case, axis=0).take(k) + n
    return _Batch(case, A, row, chord, color)


def _row_certificate(n: int, batch: _Batch, r: int) -> CertificateColoring:
    """Row r of a batch as a CertificateColoring."""
    mine = batch.row == r
    return CertificateColoring(
        n,
        _CASES[batch.case[r]],
        tuple(e for e in batch.A[r].tolist() if e),
        dict(zip(batch.chord[mine].tolist(), batch.color[mine].tolist())),
    )


def _membership(n: int, A: np.ndarray) -> np.ndarray:
    """(R, n+1) booleans: entry [r, e] tells whether e is in A[r]."""
    inA = np.zeros((len(A), n + 1), dtype=bool)
    np.put(inA, np.arange(len(A))[:, None] * (n + 1) + A, True)
    inA[:, 0] = False  # the padding
    return inA


def _min_colors(
    inA: np.ndarray, row: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """min({lo, hi} \\ A[row]) for chords (lo, hi), and whether it exists
    (it does not for a chord inside A)."""
    at = row * inA.shape[1]
    lo_in, hi_in = inA.take(at + lo), inA.take(at + hi)
    return np.where(lo_in, hi, lo), ~(lo_in & hi_in)


class _Overrides(NamedTuple):
    """Overrides sorted by (row, colour): each colour class of a row is a
    run, begun where ``start`` is set.  Chord ``chord[i]`` = (lo[i], hi[i])
    has colour ``color[i]`` in row ``row[i]``; ``own[i]`` is its min-based
    colour, which it has when ``outside[i]``, not inside A."""

    row: np.ndarray
    chord: np.ndarray
    color: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    own: np.ndarray
    outside: np.ndarray


def _sorted_overrides(
    inA: np.ndarray, ends: np.ndarray, row: np.ndarray, chord: np.ndarray,
    color: np.ndarray,
) -> _Overrides:
    """The overrides (row, chord, colour), sorted, of rows with
    ``_membership`` inA; chord v is (ends[v, 0], ends[v, 1])."""
    least, most = int(color.min(initial=0)), int(color.max(initial=0))
    span = most - least + 1
    if span * len(inA) >= 1 << 63:
        raise InvalidParametersError("override colours too far apart to sort")
    # Stable is timsort: linear on the construction's runs.
    order = np.argsort(row * span + (color - least), kind="stable")
    row, chord, color = row[order], chord[order], color[order]
    lo, hi = ends.take(chord, axis=0).T
    start = np.ones(len(row), dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (color[1:] != color[:-1])
    return _Overrides(row, chord, color, lo, hi, start, *_min_colors(inA, row, lo, hi))


def _count_colors(n: int, inA: np.ndarray, ov: _Overrides) -> np.ndarray:
    """Distinct colours of each certificate, from A and the overrides alone.

    ``inA`` is ``_membership`` of the rows' anchor sets.  An element e
    outside A is a colour while a chord it is the min-based colour of is not
    overridden: (e, y) for every y >= e+2, or (x, e) for every x in A with
    x <= e-2, except (1, n).  Each run of ``ov`` adds a colour, unless it is
    of such an element.
    """
    rows, width = inA.shape
    mine = ov.row[ov.outside] * width + ov.own[ov.outside]
    displaced = np.bincount(mine, minlength=rows * width).reshape(rows, width)
    size = np.zeros((rows, width), dtype=np.int64)
    size[:, 2:] = np.cumsum(inA, axis=1)[:, : n - 1]  # (x, e), x in A
    size[:, n] -= inA[:, 1]
    elems = np.arange(width)
    size += np.maximum(np.where(elems == 1, n - 1, n) - elems - 1, 0)
    still = ~inA & (size > displaced)
    still[:, 0] = False
    low = ov.start & (ov.color <= n)
    at = ov.row[low] * width + np.clip(ov.color[low], 0, n)
    return (
        still.sum(axis=1)
        + np.bincount(ov.row[ov.start], minlength=rows)
        - np.bincount(ov.row[low][still.take(at)], minlength=rows)
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
        """Distinct colours of the whole colouring."""
        return count_colors(self.assignment)


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


# An edge's verdicts: chord ids u < v, code into _CASES, checks.
_VERDICT = np.dtype([
    ("u", "i4"), ("v", "i4"), ("case", "i1"), ("colors_used", "i2"),
    ("proper", "?"), ("mono", "?"), ("total", "?"), ("ok", "?"),
])
_OUTCOMES = ("fail", "pass")


@dataclass(frozen=True, eq=False)
class EdgeCriticalityReport:
    """An edge sweep's verdicts, a ``_VERDICT`` array per chunk, formatted
    by ``rows`` and ``lines`` when read.  Compared by identity."""

    n: int
    chunks: tuple[np.ndarray, ...]
    # Raw decision on the base graph at k = n-3: "no" | "yes" | "timeout",
    # or None when the solver cross-check was not requested.
    solver_status: str | None

    @property
    def all_pass(self) -> bool:
        return all(c["ok"].all() for c in self.chunks)

    @property
    def passed(self) -> int:
        return sum(int(c["ok"].sum()) for c in self.chunks)

    @property
    def solver_confirms_chromatic(self) -> bool | None:
        return None if self.solver_status is None else self.solver_status == "no"

    @property
    def solver_timed_out(self) -> bool:
        return self.solver_status == "timeout"

    @property
    def rows(self) -> tuple[EdgeCertRow, ...]:
        """Rows of the verdicts, built on each read."""
        labels = [chord_label(p) for p in gn_chords(self.n)]
        return tuple(
            EdgeCertRow(f"{labels[u]},{labels[v]}", _CASES[case].value, k,
                        *flags, _OUTCOMES[ok])
            for chunk in self.chunks
            for u, v, case, k, *flags, ok in chunk.tolist()
        )

    def lines(self) -> Iterator[str]:
        """The report one line at a time, each ending in a newline."""
        labels = [chord_label(p) for p in gn_chords(self.n)]
        names = [case.value for case in _CASES]
        words = ("false", "true")
        for chunk in self.chunks:
            for u, v, case, k, proper, mono, _, ok in chunk.tolist():
                yield (f"{labels[u]},{labels[v]} {names[case]} {k} "
                       f"{words[proper]} {words[mono]} {_OUTCOMES[ok]}\n")
        edges = sum(map(len, self.chunks))
        yield f"certificates {self.passed}/{edges} valid at n={self.n}\n"
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


def _run_pairs(start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of entries in one run; start marks the
    first entry of each run."""
    size = len(start)
    bounds = np.append(np.flatnonzero(start), size)
    later = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(size) - 1
    i = np.repeat(np.arange(size), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return i, j


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
    rows, m = len(eu), len(adj)
    inA = _membership(n, batch.A)
    ov = _sorted_overrides(inA, ends, batch.row, batch.chord, batch.color)
    row, chord, color = ov.row, ov.chord, ov.color
    # Total: override keys are distinct, so it suffices to count both sides.
    s, t = (batch.A.take(k, axis=1) for k in _A_PAIRS)
    inside = np.bincount(row[~ov.outside], minlength=rows)
    total = inside == is_stable_pair(s, t, n).sum(axis=1)
    # Each end of the deleted edge: its override in the row, if any, else
    # its min-based colour.
    e = np.stack([eu, ev])
    lo, hi = np.moveaxis(ends.take(e, axis=0), 2, 0)
    own = _min_colors(inA, np.arange(rows), lo, hi)[0]
    end, i = np.divmod(np.flatnonzero(chord == e.take(row, axis=1)), len(row))
    own[end, row[i]] = color[i]
    # A total certificate colours every chord.
    mono = total & (own[0] == own[1])

    def deleted(r, v, w):
        """Whether v-w is row r's deleted edge, in either orientation."""
        return ((v == eu[r]) & (w == ev[r])) | ((v == ev[r]) & (w == eu[r]))

    # No run of overrides holds an edge but the deleted one.
    i, j = _run_pairs(ov.start)
    k = np.flatnonzero(adj.take(chord[i] * m + chord[j]))
    r, v, w = row[i[k]], chord[i[k]], chord[j[k]]
    proper = total.copy()
    proper[r[~deleted(r, v, w)]] = False
    # An override of colour c <= n that its chord lacks, against every
    # neighbour but the other end of the deleted edge.
    lacks = (color <= n) & (color != ov.lo) & (color != ov.hi)
    if lacks.any():
        k, w = np.nonzero(adj[chord[lacks]])
        r, v, c = row[lacks][k], chord[lacks][k], color[lacks][k]
        # w's colour in row r: its override, by (row, chord) key, if any,
        # else its min-based colour, which a chord inside A lacks.
        keys = row * m + chord
        order = keys.argsort()
        at = np.searchsorted(keys, r * m + w, sorter=order)
        at = order[at.clip(max=len(keys) - 1)]
        over = keys[at] == r * m + w
        own, has = _min_colors(inA, r, *ends.take(w, axis=0).T)
        same = (over | has) & (np.where(over, color[at], own) == c)
        proper[r[same & ~deleted(r, v, w)]] = False
    return proper, mono, total, _count_colors(n, inA, ov)


def _edge_chunks(upper: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The nonzeros (u, v) of ``upper``, row-major as ``Graph.edges()``,
    at most ``_CHUNK`` at a time, indexed a ~1 MB block of rows at a time."""
    step = max(1, (1 << 20) // len(upper))
    for r in range(0, len(upper), step):
        u, v = np.nonzero(upper[r : r + step])
        for s in range(0, len(u), _CHUNK):
            yield u[s : s + _CHUNK] + r, v[s : s + _CHUNK]


def verify_edge_criticality(
    n: int,
    use_solver: bool = False,
    cfg: SolverConfig | None = None,
) -> EdgeCriticalityReport:
    """Certify every edge of gn(n); optionally solver-check the base graph.

    The sweep builds gn(n) only for the solver and keeps only the edges'
    verdicts, which the report formats when read.  Raises AssertionError,
    and returns no report, if an edge of the adjacency is not a crossing or
    transverse pair: such pairs are disjoint, the premise of the class by
    class properness check.
    """
    solver_status: str | None = None
    if use_solver:
        solver_status = is_k_colorable(gn(n), n - 3, cfg).status
    chords = gn_chords(n)
    upper = _upper_adjacency(chords)
    adj = upper | upper.T
    ends = np.array(chords, dtype=np.int64)
    chunks = []
    for u, v in _edge_chunks(upper):
        try:
            batch = _certificate_batch(n, ends.take(u, axis=0), ends.take(v, axis=0))
        except NotAnEdgeError as exc:
            raise AssertionError(f"gn({n}): {exc}") from exc
        proper, mono, total, colors_used = _check(n, adj, ends, u, v, batch)
        ok = total & proper & mono & (colors_used <= n - 3)
        columns = (u, v, batch.case, colors_used, proper, mono, total, ok)
        chunks.append(np.empty(len(u), dtype=_VERDICT))
        for name, column in zip(_VERDICT.names, columns):
            chunks[-1][name] = column
    return EdgeCriticalityReport(n, tuple(chunks), solver_status)


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
