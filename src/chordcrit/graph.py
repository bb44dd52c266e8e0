"""Immutable labelled graphs: edge deletion, colouring checks, text exports.

Vertices are dense integer ids 0..n-1; labels are presentation only.  The
adjacency is one tuple of rows, Python ints with bit w of row u set iff u
and w are adjacent; ``pack`` and ``unpack`` convert rows to and from a
boolean matrix.  All derivation operations (edge or vertex deletion) return
new graphs, so a base graph can be shared by concurrent sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Partial or total colour assignment, vertex id -> colour id.
Coloring = dict[int, int]


class MissingEdgeError(KeyError):
    """An operation named an edge that is not in the graph."""


class Edge(NamedTuple):
    u: int
    v: int


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to an Edge of ints with u < v."""
    u, v = index(u), index(v)
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return Edge(u, v) if u < v else Edge(v, u)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pack(matrix: np.ndarray) -> tuple[int, ...]:
    """The rows of a boolean matrix as ints: bit w of row u is matrix[u, w]."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    width = packed.shape[1]
    if not width:
        return (0,) * len(packed)
    buf = packed.tobytes()
    return tuple([int.from_bytes(buf[i:i + width], "little")
                  for i in range(0, len(buf), width)])


def unpack(rows: Sequence[int], n: int) -> np.ndarray:
    """The boolean matrix of bits 0..n-1 of each row; ``pack`` inverts it."""
    width = (n + 7) // 8
    buf = b"".join([r.to_bytes(width, "little") for r in rows])
    packed = np.frombuffer(buf, np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


@dataclass(frozen=True)
class Graph:
    """Labelled vertices; bit w of ``rows[u]`` is set iff u ~ w (symmetric, loop-free)."""

    labels: tuple[str, ...]
    rows: tuple[int, ...]
    n_hint: int | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """False for any id outside 0..n-1."""
        u, v = index(u), index(v)
        return 0 <= u < self.n and 0 <= v and bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[Edge]:
        """All edges as (u, v) with u < v, ascending lexicographically."""
        new = tuple.__new__  # builds an Edge without its Python-level __new__
        for u, row in enumerate(self.rows):
            row &= -2 << u
            while row:
                low = row & -row
                yield new(Edge, (u, low.bit_length() - 1))
                row ^= low


def build_graph(
    labels: Iterable[str],
    edges: Iterable[tuple[int, int]],
    n_hint: int | None = None,
) -> Graph:
    """Construct a validated Graph from labels and an edge list."""
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("vertex labels must be unique")
    rows = [0] * n
    for u, v in edges:
        u, v = index(u), index(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(labels, tuple(rows), n_hint)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Return g with edge e removed; g itself is untouched."""
    u, v = edge(e[0], e[1])
    if not g.has_edge(u, v):
        raise MissingEdgeError(f"edge ({u},{v}) not in graph")
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.labels, tuple(rows), g.n_hint)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Return g minus vertex v, with the remaining ids repacked densely:
    bit v leaves each row and the bits above it shift down by one."""
    v = index(v)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    low = (1 << v) - 1
    rows = tuple(r & low | r >> v + 1 << v for r in g.rows[:v] + g.rows[v + 1:])
    return Graph(g.labels[:v] + g.labels[v + 1:], rows, g.n_hint)


@dataclass(frozen=True)
class ColoringCheck:
    """Verdict of a properness check.

    `monochromatic` lists every edge whose endpoints carry equal colours;
    `uncolored` lists every vertex without a colour.  The colouring is
    proper exactly when both are empty.
    """

    monochromatic: tuple[Edge, ...]
    uncolored: tuple[int, ...]

    @property
    def proper(self) -> bool:
        return not self.monochromatic and not self.uncolored


def is_proper_coloring(g: Graph, c: Coloring) -> ColoringCheck:
    """Check c against g; failures are enumerated, never raised."""
    uncolored = tuple(v for v in range(g.n) if v not in c)
    mono = tuple(
        e for e in g.edges()
        if e.u in c and e.v in c and c[e.u] == c[e.v]
    )
    return ColoringCheck(mono, uncolored)


def count_colors(c: Coloring) -> int:
    return len(set(c.values()))


STRUCTURED_HEADER = "chordcrit-graph v1"

EXPORT_FORMATS = ("dimacs", "edgelist", "structured")


def export_graph(g: Graph, format: str = "dimacs") -> str:
    """Serialize g in DIMACS colouring, label edge list, or structured form."""
    if format == "dimacs":
        lines = [f"p edge {g.n} {g.edge_count}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    elif format == "edgelist":
        lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges()]
    elif format == "structured":
        lines = [STRUCTURED_HEADER]
        lines.append(f"vertices {g.n}")
        lines.append(f"n_hint {g.n_hint if g.n_hint is not None else '-'}")
        for i, lbl in enumerate(g.labels):
            lines.append(f"label {i} {lbl}")
        for i in range(g.n):
            nbrs = " ".join(str(w) for w in g.neighbors(i))
            lines.append(f"adj {i} {nbrs}".rstrip())
        lines.append("end")
    else:
        raise ValueError(f"unknown format {format!r}; expected one of {EXPORT_FORMATS}")
    return "\n".join(lines) + "\n"
