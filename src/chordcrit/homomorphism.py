"""Explicit edge-preserving map from the clone expansion of gn(n-1) into gn(n).

The map is a tuple of gn(n) vertex ids indexed in the expansion's layout
(see ``mycielski``): base chord i of gn(n-1) is vertex i, its clone is
vertex m+i for m chords, and the apex is vertex 2m.  Base chords map to
themselves; the clone of (a, b) maps to (a, n), except that chords starting
at 1 clone to (b, n); the apex maps to (1, n-1).  Every image is again a
chord of the n-cycle, and the map sends every edge of the expansion to an
edge of gn(n), which is verified exhaustively here.

Chaining the map with the fact that the clone construction raises the
chromatic number by one turns the base value chi(gn(5)) = 3 into the lower
bound chi(gn(n)) >= n - 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import (
    InvalidParametersError,
    _size,
    chord_base,
    gn,
    gn_chords,
    mycielski,
    mycielski_iter,
)
from .graph import Edge, Graph, unpack
from .solver import SolverConfig, chromatic_number


@dataclass(frozen=True)
class HomVerdict:
    valid: bool
    violations: tuple[Edge, ...]  # edges of G whose images are not adjacent


def verify_homomorphism(G: Graph, H: Graph, mapping: tuple[int, ...]) -> HomVerdict:
    """Valid iff every edge of G maps to an edge of H (images adjacent).

    ``mapping[u]`` is the H vertex id of G's vertex u.  All edges are
    tested at once: entry (u, w) of G's adjacency matrix is a violation when
    entry (mapping[u], mapping[w]) of H's is not set.  The violations are
    the upper triangle's, in row-major order, which is ``G.edges()`` order.
    """
    if len(mapping) != G.n:
        raise InvalidParametersError("map must be total on the domain")
    if mapping and not (0 <= min(mapping) and max(mapping) < H.n):
        raise InvalidParametersError(f"map images must be vertex ids 0..{H.n - 1}")
    bad = unpack(G.rows, G.n) > unpack(H.rows, H.n)[np.ix_(mapping, mapping)]
    violations = tuple(Edge(u, w) for u, w in np.argwhere(bad).tolist() if u < w)
    return HomVerdict(not violations, violations)


def build_h(n: int) -> tuple[int, ...]:
    """The explicit map from the expansion of gn(n-1) into gn(n), by ids."""
    n = _size(n, 5)
    chords = gn_chords(n - 1)
    base = chord_base(n)
    images = [base[a] + b for a, b in chords]
    clones = [base[b if a == 1 else a] + n for a, b in chords]
    return (*images, *clones, base[1] + n - 1)


@dataclass(frozen=True)
class ChainLevel:
    n: int
    valid: bool
    violations: int


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
                f"{state} [machine-checked]"
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
        lines.append(
            f"certified lower bound: chi(G_{self.n}) >= {self.bound}"
            if self.all_valid
            else "no certified lower bound: a check above failed"
        )
        return "\n".join(lines) + "\n"


def lower_bound_chain(n: int, cfg: SolverConfig | None = None) -> LowerBoundReport:
    """Assemble the inductive lower bound chi(gn(n)) >= n - 2.

    Every level's map is verified on every edge; the base case and the
    increment property of the clone construction for small iterates are
    solver-checked, the increment for larger graphs is cited.  Each gn(m)
    is built once: the codomain of one level is the base of the next.
    """
    n = _size(n, 5)
    cfg = cfg or SolverConfig()
    levels = []
    prev, g5 = gn(4), gn(5)
    for m in range(5, n + 1):
        cod = g5 if m == 5 else gn(m)
        verdict = verify_homomorphism(mycielski(prev), cod, build_h(m))
        levels.append(ChainLevel(m, verdict.valid, len(verdict.violations)))
        if not verdict.valid:
            break
        prev = cod
    base = chromatic_number(g5, cfg)
    base_ok = base.status == "exact" and base.chi == 3
    increments = []
    for k in range(2, 6):
        res = chromatic_number(mycielski_iter(k), cfg)
        increments.append((k, res.chi, res.status == "exact" and res.chi == k))
    return LowerBoundReport(
        n=n,
        bound=n - 2,
        levels=tuple(levels),
        base_chi=base.chi,
        base_ok=base_ok,
        increment_checks=tuple(increments),
    )
