"""Explicit edge-preserving map from the clone expansion of gn(n-1) into gn(n).

Base chords map to themselves; the clone of (a, b) maps to (a, n), except
that chords starting at 1 clone to (b, n); the apex maps to (1, n-1).  Every
image is again a chord of the n-cycle, and the map sends every edge of the
expansion to an edge of gn(n), which is verified exhaustively here.

Chaining the map with the fact that the clone construction raises the
chromatic number by one turns the base value chi(gn(5)) = 3 into the lower
bound chi(gn(n)) >= n - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .families import (
    Chord,
    InvalidParametersError,
    chord_index,
    gn,
    gn_chords,
    mycielski,
)
from .graph import Edge, Graph
from .solver import SolverConfig, chromatic_number
from . import families


class MycielskiVertex(NamedTuple):
    """Vertex of the clone expansion: tag 'base', 'clone', or 'star'."""

    tag: str
    chord: Chord | None


def mycielski_vertices(n: int) -> list[MycielskiVertex]:
    """Vertices of the expansion of gn(n-1), in its id layout order."""
    chords = gn_chords(n - 1)
    out = [MycielskiVertex("base", p) for p in chords]
    out += [MycielskiVertex("clone", p) for p in chords]
    out.append(MycielskiVertex("star", None))
    return out


def h_image(v: MycielskiVertex, n: int) -> Chord:
    """Image chord of an expansion vertex in gn(n)."""
    if n < 5:
        raise InvalidParametersError(f"need n >= 5, got n={n}")
    if v.tag == "star":
        return (1, n - 1)
    if v.chord is None:
        raise InvalidParametersError(f"{v.tag} vertex needs a chord")
    a, b = families.validate_chord(v.chord, n - 1)
    if v.tag == "base":
        return (a, b)
    if v.tag == "clone":
        return (a, n) if a != 1 else (b, n)
    raise InvalidParametersError(f"unknown vertex tag {v.tag!r}")


@dataclass(frozen=True)
class VertexMap:
    """Total vertex map between two graphs, stored by id."""

    domain: str
    codomain: str
    mapping: tuple[int, ...]


@dataclass(frozen=True)
class HomViolation:
    edge: Edge
    image_u: int
    image_v: int


@dataclass(frozen=True)
class HomVerdict:
    valid: bool
    violations: tuple[HomViolation, ...]

    def render(self, G: Graph, H: Graph) -> str:
        if self.valid:
            return "valid\n"
        lines = [
            f"violation: ({G.labels[v.edge.u]},{G.labels[v.edge.v]}) -> "
            f"({H.labels[v.image_u]},{H.labels[v.image_v]})"
            for v in self.violations
        ]
        return "\n".join(lines) + "\n"


def verify_homomorphism(G: Graph, H: Graph, m: VertexMap) -> HomVerdict:
    """Valid iff every edge of G maps to an edge of H (images adjacent)."""
    if len(m.mapping) != G.n:
        raise InvalidParametersError("map must be total on the domain")
    violations = []
    for e in G.edges():
        iu, iv = m.mapping[e.u], m.mapping[e.v]
        if iu == iv or not H.has_edge(iu, iv):
            violations.append(HomViolation(e, iu, iv))
    return HomVerdict(not violations, tuple(violations))


def build_h(n: int) -> VertexMap:
    """The explicit map from the expansion of gn(n-1) into gn(n), by ids."""
    if n < 5:
        raise InvalidParametersError(f"need n >= 5, got n={n}")
    target_ids = chord_index(n)
    mapping = tuple(target_ids[h_image(v, n)] for v in mycielski_vertices(n))
    return VertexMap(domain=f"M(G_{n - 1})", codomain=f"G_{n}", mapping=mapping)


@dataclass(frozen=True)
class ChainLevel:
    n: int
    valid: bool
    violations: int
    method: str  # "machine-checked" | "cited"


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    bound: int
    levels: tuple[ChainLevel, ...]
    base_chi: int
    base_ok: bool
    increment_checks: tuple[tuple[int, int, bool], ...]  # (k, chi(M_k), ok)

    @property
    def all_valid(self) -> bool:
        return self.base_ok and all(l.valid for l in self.levels) and all(
            ok for _, _, ok in self.increment_checks
        )

    def render(self) -> str:
        lines = []
        for level in self.levels:
            state = "valid" if level.valid else f"{level.violations} violations"
            lines.append(
                f"level {level.n}: map M(G_{level.n - 1}) -> G_{level.n} "
                f"{state} [{level.method}]"
            )
        lines.append(
            f"base case: chi(G_5) = {self.base_chi} "
            f"[{'ok' if self.base_ok else 'MISMATCH'}, solver]"
        )
        for k, chi, ok in self.increment_checks:
            lines.append(
                f"clone-step increment spot check: chi(M_{k}) = {chi} "
                f"[{'ok' if ok else 'MISMATCH'}, solver]"
            )
        lines.append(
            "clone-step increment for the remaining levels: cited, not machine-checked"
        )
        lines.append(f"certified lower bound: chi(G_{self.n}) >= {self.bound}")
        return "\n".join(lines) + "\n"


def lower_bound_chain(n: int, cfg: SolverConfig | None = None) -> LowerBoundReport:
    """Assemble the inductive lower bound chi(gn(n)) >= n - 2.

    Every level's map is verified edge-by-edge; the base case and the
    increment property of the clone construction for small iterates are
    solver-checked, the increment for larger graphs is cited.
    """
    if n < 5:
        raise InvalidParametersError(f"need n >= 5, got n={n}")
    cfg = cfg or SolverConfig()
    levels = []
    for m in range(5, n + 1):
        dom = mycielski(gn(m - 1))
        cod = gn(m)
        verdict = verify_homomorphism(dom, cod, build_h(m))
        levels.append(
            ChainLevel(m, verdict.valid, len(verdict.violations), "machine-checked")
        )
        if not verdict.valid:
            break
    base = chromatic_number(gn(5), cfg)
    base_ok = base.status == "exact" and base.chi == 3
    increments = []
    for k in range(2, 6):
        res = chromatic_number(families.mycielski_iter(k), cfg)
        increments.append((k, res.chi, res.status == "exact" and res.chi == k))
    return LowerBoundReport(
        n=n,
        bound=n - 2,
        levels=tuple(levels),
        base_chi=base.chi,
        base_ok=base_ok,
        increment_checks=tuple(increments),
    )
