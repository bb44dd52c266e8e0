"""Exact k-colourability and chromatic number by complete backtracking.

There is one vertex order.  The search colours one vertex per depth,
picking the uncoloured vertex of maximum saturation (distinct neighbour
colours), breaking ties by degree and then by a seed-derived rank; the greedy
upper bound picks the same way but breaks the last ties by vertex id.  Colour
symmetry is broken canonically: a vertex may only reuse a colour already on
the board or introduce the single next new one, and a maximum clique found
heuristically is pre-assigned the first colours.  Both breaks preserve
completeness (any proper colouring can be relabelled into canonical form), so
a "no" answer is exhaustive.

The kernel runs in slices of a bounded number of backtracks; the wall clock
is consulted only between slices, which keeps timeout handling cheap and the
search itself deterministic.  The first slice is small and each slice that
ends quickly doubles the next one, up to ``backtrack_check_interval``, so a
budget is overrun by about one short slice whatever the kernel's speed.
Slices resume the same search, so their sizes change no status, witness or
backtrack count.  The kernel runs interpreted on plain Python lists (one
neighbour tuple and one neighbour-colour-count list per vertex), which index
without the scalar boxing that numpy arrays cost in an interpreted loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Coloring, Graph, count_colors

_SAT = 1
_UNSAT = 2
_PAUSED = 0

# Slice sizing: backtracks in the first slice, and the wall time under which
# a slice is doubled.
_FIRST_SLICE = 256
_SLICE_TARGET_S = 0.05


@dataclass(frozen=True)
class SolverConfig:
    time_budget: float = 60.0
    seed: int = 0
    # Timeout granularity: the wall clock is checked at least once per this
    # many backtracks, never per node.
    backtrack_check_interval: int = 200_000

    def __post_init__(self) -> None:
        if not self.time_budget > 0:  # also rejects NaN
            raise ValueError("time_budget must be positive")
        if self.backtrack_check_interval < 1:
            raise ValueError("backtrack_check_interval must be >= 1")


@dataclass(frozen=True)
class ColorDecision:
    """Outcome of a k-colourability decision: yes (with witness), no, timeout."""

    status: str  # "yes" | "no" | "timeout"
    witness: Coloring | None = None
    backtracks: int = 0


@dataclass(frozen=True)
class ChromaticResult:
    chi: int
    witness: Coloring
    lower_bound_witness: tuple[int, ...]
    status: str  # "exact" | "timeout_with_bounds"
    lower_bound: int
    upper_bound: int


def _search_slice(nbrs, k, degree, rank, color, ncc, sat,
                  stack_vertex, stack_color, stack_prev_max, state,
                  max_backtracks):
    """Resumable exact-search slice; returns (status, backtracks_used).

    nbrs[v] is v's neighbour tuple and ncc[v][c] the number of v's neighbours
    coloured c.  state = [depth, max_used, mode, fixed_prefix].  mode 0
    selects a vertex for the current depth, mode 1 advances the colour of
    the vertex already on the stack.  Backtracking below fixed_prefix (the
    pre-assigned clique) proves unsatisfiability.
    """
    n = len(color)
    depth, max_used, mode, fixed = state
    backtracks = 0
    while True:
        if mode == 0:
            if depth == n:
                state[:3] = depth, max_used, mode
                return _SAT, backtracks
            v = -1
            best_sat = -1
            best_deg = -1
            best_rank = 0
            for u in range(n):
                if color[u] < 0:
                    su = sat[u]
                    if su < best_sat:
                        continue
                    du = degree[u]
                    if (su > best_sat or du > best_deg
                            or (du == best_deg and rank[u] < best_rank)):
                        v = u
                        best_sat = su
                        best_deg = du
                        best_rank = rank[u]
            stack_vertex[depth] = v
            stack_prev_max[depth] = max_used
            start_c = 0
        else:
            if depth < fixed:
                state[:3] = depth, max_used, mode
                return _UNSAT, backtracks
            v = stack_vertex[depth]
            c_old = stack_color[depth]
            color[v] = -1
            for nb in nbrs[v]:
                counts = ncc[nb]
                counts[c_old] -= 1
                if counts[c_old] == 0:
                    sat[nb] -= 1
            max_used = stack_prev_max[depth]
            start_c = c_old + 1
        limit = min(max_used + 1, k - 1)
        counts = ncc[v]
        c = -1
        for cc in range(start_c, limit + 1):
            if counts[cc] == 0:
                c = cc
                break
        if c < 0:
            depth -= 1
            mode = 1
            backtracks += 1
            if backtracks >= max_backtracks:
                state[:3] = depth, max_used, mode
                return _PAUSED, backtracks
        else:
            color[v] = c
            stack_color[depth] = c
            for nb in nbrs[v]:
                counts = ncc[nb]
                if counts[c] == 0:
                    sat[nb] += 1
                counts[c] += 1
            if c > max_used:
                max_used = c
            depth += 1
            mode = 0


def greedy_bound(g: Graph) -> Coloring:
    """Proper colouring by first fit, most saturated uncoloured vertex first."""
    coloring: Coloring = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if u not in coloring),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        coloring[v] = c
        for w in g.adj[v]:
            if w not in coloring:
                neighbor_colors[w].add(c)
    return coloring


def clique_bound(g: Graph) -> list[int]:
    """A clique found greedily with a 1-out/2-in improvement pass.

    Its size is a valid lower bound on the chromatic number.
    """
    if g.n == 0:
        return []
    best: list[int] = [0]

    def grow(clique: list[int], candidates: set[int]) -> list[int]:
        clique = list(clique)
        cands = set(candidates)
        while cands:
            v = max(cands, key=lambda u: (len(g.adj[u] & cands), g.degree(u), -u))
            clique.append(v)
            cands &= g.adj[v]
        return clique

    seeds = sorted(range(g.n), key=lambda u: (-g.degree(u), u))[: min(g.n, 32)]
    for s in seeds:
        clique = grow([s], set(g.adj[s]))
        if len(clique) > len(best):
            best = clique
    # Local improvement: dropping one member may admit two replacements.
    improved = True
    while improved:
        improved = False
        for drop in list(best):
            rest = [v for v in best if v != drop]
            cands = set(range(g.n)) - set(rest)
            for v in rest:
                cands &= g.adj[v] | {v}
            cands.discard(drop)
            candidate = grow(rest, {c for c in cands if c not in rest})
            if len(candidate) > len(best):
                best = candidate
                improved = True
                break
    return sorted(best)


def is_k_colorable(
    g: Graph, k: int, cfg: SolverConfig | None = None
) -> ColorDecision:
    """Decide k-colourability by complete search; "no" is exhaustive.

    Time budget exhaustion is reported as status "timeout", distinct from a
    proved "no".
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cfg = cfg or SolverConfig()
    n = g.n
    if n == 0:
        return ColorDecision("yes", witness={})
    if k == 0:
        return ColorDecision("no")
    clique = clique_bound(g)
    if len(clique) > k:
        return ColorDecision("no")

    nbrs = [g.neighbors(v) for v in range(n)]
    degree = [len(nb) for nb in nbrs]
    rng = np.random.default_rng(cfg.seed)
    rank = np.argsort(rng.permutation(n)).tolist()

    color = [-1] * n
    ncc = [[0] * k for _ in range(n)]
    sat = [0] * n
    stack_vertex = [0] * n
    stack_color = [0] * n
    stack_prev_max = [0] * n

    # Pre-assign the clique to colours 0..q-1; backtracking below this
    # prefix is unsatisfiability.
    seed_clique = clique[:k]
    for depth, v in enumerate(seed_clique):
        c = depth
        stack_vertex[depth] = v
        stack_color[depth] = c
        stack_prev_max[depth] = c - 1
        color[v] = c
        for w in nbrs[v]:
            if ncc[w][c] == 0:
                sat[w] += 1
            ncc[w][c] += 1
    q = len(seed_clique)
    state = [q, q - 1, 0, q]

    deadline = time.monotonic() + cfg.time_budget
    slice_size = min(_FIRST_SLICE, cfg.backtrack_check_interval)
    total_backtracks = 0
    while True:
        started = time.monotonic()
        status, used = _search_slice(
            nbrs, k, degree, rank, color, ncc, sat,
            stack_vertex, stack_color, stack_prev_max, state, slice_size,
        )
        total_backtracks += used
        if status == _SAT:
            witness = dict(enumerate(color))
            return ColorDecision("yes", witness=witness, backtracks=total_backtracks)
        if status == _UNSAT:
            return ColorDecision("no", backtracks=total_backtracks)
        now = time.monotonic()
        if now >= deadline:
            return ColorDecision("timeout", backtracks=total_backtracks)
        if now - started < _SLICE_TARGET_S:
            slice_size = min(2 * slice_size, cfg.backtrack_check_interval)


def chromatic_number(g: Graph, cfg: SolverConfig | None = None) -> ChromaticResult:
    """Exact chromatic number with witness, or bounds on budget exhaustion.

    Searches downward from the greedy upper bound; optimality is certified
    either by the clique lower bound or by an exhaustive "no" one level
    below the final witness.
    """
    cfg = cfg or SolverConfig()
    if g.n == 0:
        return ChromaticResult(0, {}, (), "exact", 0, 0)
    clique = clique_bound(g)
    lower = max(1, len(clique))
    witness = greedy_bound(g)
    upper = count_colors(witness)
    deadline = time.monotonic() + cfg.time_budget

    k = upper - 1
    while k >= lower:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
        step_cfg = SolverConfig(
            time_budget=remaining,
            seed=cfg.seed,
            backtrack_check_interval=cfg.backtrack_check_interval,
        )
        decision = is_k_colorable(g, k, step_cfg)
        if decision.status == "yes":
            witness = decision.witness or {}
            upper = k
            k -= 1
        elif decision.status == "no":
            lower = k + 1
            break
        else:
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
    return ChromaticResult(upper, witness, tuple(clique), "exact", upper, upper)


def render_witness(g: Graph, c: Coloring) -> str:
    """Witness colouring as 'vertex_label colour' lines."""
    return "\n".join(f"{g.labels[v]} {c[v]}" for v in sorted(c)) + "\n"
